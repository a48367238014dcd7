//! `clasp-cli` — compile `.clasp` loop descriptions for clustered VLIW
//! machines from the command line.
//!
//! ```text
//! clasp-cli analyze  <loop.clasp>
//! clasp-cli compile  <loop.clasp> [options]
//! clasp-cli simulate <loop.clasp> [options] [--iterations N]
//! clasp-cli fuzz     [--seed N] [--cases N] [--iterations N] [--shrink]
//!                    [--fault none|skew|misplace|smear] [--out DIR]
//!                    [--threads N] [--exact] [--hard-out DIR]
//! clasp-cli batch    [--dir DIR] [--backend B] [--threads N]
//!                    [--preset NAME]... [--stratum S|all] [--stratum-loops N]
//!                    [--seed N] [--strata-csv PATH]
//! clasp-cli load     [--mix M] [--transport T] [--clients N] [--requests N]
//!                    [--seed N] [--rate R] [--hard-dir DIR]
//!                    [--server HOST:PORT] [--json PATH] [--trace-json PATH]
//!                    [--gate PATH] [--gate-factor F]
//! clasp-cli corpus   [--seed N] [--loops-per-stratum N] [--out PATH]
//!                    [--check PATH]
//! clasp-cli machines
//!
//! Every compile — `compile`, `simulate`, `batch`, and the fuzz
//! oracle's — goes through the `CompileService` facade: a tiered
//! content-addressed cache (`--cache-dir` adds a persistent tier whose
//! artifacts survive the process) behind an admission gate. With
//! `--server HOST:PORT`, `compile`, `simulate` and `batch` send their
//! requests to a running `clasp-serve` daemon instead and print from
//! the returned canonical artifact — the output is bit-identical to a
//! local run.
//!
//! `fuzz` runs the differential oracle over a seeded stream of random
//! (loop, machine) pairs and exits non-zero on any invariant violation;
//! with `--shrink`, violating cases are minimized and written as
//! `.clasp` + `.machine` reproducer pairs under `--out` (default
//! `results/repros`; the directory is created and reproducers from
//! prior runs are removed first). `--fault` corrupts each compiled
//! artifact on purpose — a self-test proving the oracle detects bugs.
//! Cases are checked on `--threads` workers (0 = one per hardware
//! thread); the report is bit-identical for every value.
//!
//! `batch` compiles every `.clasp` loop under `--dir` (default `loops/`)
//! against every preset machine, plus each pair's unified baseline, in
//! one parallel sweep through the content-addressed compile cache. The
//! report — one line per pair with the achieved II, baseline II, and a
//! content hash of the emitted kernel, then the cache and observability
//! counters — goes to stdout and is bit-identical for every `--threads`
//! value (timing goes to stderr), so CI can diff runs directly. The
//! printed counters stay thread-count independent because every counted
//! quantity depends only on work done, never on how workers interleave
//! (see `clasp-obs`). `--backend exact` routes every pair (unified
//! baselines included) through the SAT backend instead. `--preset NAME`
//! (repeatable) restricts the machine set to named presets — classic
//! spellings or the parameterized families (`mesh4x4`, `torus3x3`,
//! `pe-grid2x3`, `het4c-s1998`, ...); `--stratum S` (or `all`) swaps the
//! `--dir` loops for `--stratum-loops` generated loops per stratum at
//! `--seed`; `--strata-csv PATH` additionally writes the aggregated
//! per-stratum II-vs-unified degradation table (see `clasp::strata`).
//!
//! `corpus` renders the stratified-corpus manifest (seed, per-stratum
//! seeds, loop counts, structural fingerprints); `--check` compares the
//! generator's output against the committed
//! `results/strata-manifest.txt` and exits non-zero on drift.
//!
//! `load` replays a deterministic synthetic request mix (hot cache
//! repeats / cold uniques / fuzz-mined hard pairs / exact-backend
//! solves) against the in-process service and/or a `clasp-serve`
//! daemon, at each configured client concurrency, and prints
//! p50/p99/p99.9 latency, throughput, and error counts per cell plus
//! fd/RSS watermarks. `--rate` switches from closed- to open-loop
//! arrivals (latency then includes queueing delay). `--json` writes the
//! `BENCH_load.json` report; `--gate` compares each cell's p99 against
//! a committed baseline and fails past `--gate-factor`. Exits non-zero
//! on any load error, fd leak, or gate violation.
//!
//! options:
//!   --machine <preset>    2c-gp | 4c-gp | 6c-gp | 8c-gp | 2c-fs | 4c-fs |
//!                         grid | unified (default: 2c-gp)
//!   --machine-file <path> load a custom `.machine` description instead
//!   --buses N             override bus count (bused presets, at most 64)
//!   --ports N             override read/write port count (at most 16)
//!   --variant <v>         simple | simple-iterative | heuristic |
//!                         heuristic-iterative (default)
//!   --scheduler <s>       iterative (default) | swing
//!   --backend <b>         heuristic (default) | exact — the exact
//!                         backend proves the minimal II by SAT on
//!                         small loops; past its node/conflict budget
//!                         it fails with a typed `Budget` reason
//!   --model <m>           mve (default) | rotating register naming
//!   --iterations N        iterations to emit/simulate (default 16, at
//!                         most 4096)
//!   --dot                 dump the working graph as Graphviz DOT
//!   --kernel              print the kernel table
//!   --explain             print the assignment decision log, the
//!                         per-stage compile report, and the
//!                         observability span tree with counters
//!   --trace-json <path>   write a Chrome trace-event JSON file
//!                         (load in Perfetto / chrome://tracing); also
//!                         accepted by `batch`
//!   --cache-dir <dir>     persistent compile-cache tier (also `batch`)
//!   --server <host:port>  compile on a `clasp-serve` daemon (also `batch`)
//! ```

use clasp::serve::Client;
use clasp::service::{CompileService, ServiceConfig, ServiceRequest};
use clasp::strata::CLASSIC_PRESETS;
use clasp::{
    unified_ii, BackendKind, CompileRequest, CompiledArtifact, PipelineConfig, RegisterModelKind,
    MAX_ITERATIONS,
};
use clasp_core::Variant;
use clasp_ddg::{find_sccs, rec_mii, swing_order, Ddg};
use clasp_machine::{presets, MachineSpec};
use clasp_obs::Obs;
use clasp_sched::SchedulerKind;
use clasp_text::limits::{MAX_BUSES, MAX_PORTS};
use std::process::ExitCode;

struct Options {
    machine: String,
    machine_file: Option<String>,
    buses: Option<u32>,
    ports: Option<u32>,
    variant: Variant,
    scheduler: SchedulerKind,
    backend: BackendKind,
    model: RegisterModelKind,
    iterations: i64,
    dot: bool,
    kernel: bool,
    explain: bool,
    trace_json: Option<String>,
    cache_dir: Option<String>,
    server: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            machine: "2c-gp".into(),
            machine_file: None,
            buses: None,
            ports: None,
            variant: Variant::HeuristicIterative,
            scheduler: SchedulerKind::Iterative,
            backend: BackendKind::Heuristic,
            model: RegisterModelKind::Mve,
            iterations: 16,
            dot: false,
            kernel: false,
            explain: false,
            trace_json: None,
            cache_dir: None,
            server: None,
        }
    }
}

/// The local compile service for one CLI invocation: the persistent
/// tier straight from `--cache-dir`, admission left at one compile per
/// hardware thread.
fn local_service(cache_dir: Option<&str>) -> Result<CompileService, String> {
    CompileService::new(ServiceConfig {
        cache_dir: cache_dir.map(Into::into),
        ..ServiceConfig::default()
    })
    .map_err(|e| format!("opening cache dir: {e}"))
}

/// The one compile behind `compile` and `simulate`: on the `--server`
/// daemon (canonical texts over the wire, canonical artifact back,
/// bit-identical to a local compile) or through a local service, writing
/// the `--trace-json` file either way. Also returns the span tree of a
/// local compile under `--explain`; a daemon ships only the trace JSON.
fn compile_one(
    g: &Ddg,
    machine: &MachineSpec,
    req: &CompileRequest,
    opts: &Options,
) -> Result<(CompiledArtifact, Option<String>), String> {
    let (result, rendered) = if let Some(addr) = &opts.server {
        let mut client = Client::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
        let mut sreq = ServiceRequest::new(
            clasp_text::write_loop(g),
            clasp_text::write_machine(machine),
        );
        sreq.request = *req;
        sreq.capture_trace = opts.trace_json.is_some();
        let reply = client.compile(&sreq).map_err(|e| format!("{addr}: {e}"))?;
        let result = reply.decode().map_err(|e| format!("{addr}: {e}"))?;
        if let (Some(path), Some(trace)) = (&opts.trace_json, &reply.trace) {
            std::fs::write(path, trace).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("trace written to {path}");
        }
        (result, None)
    } else {
        let service = local_service(opts.cache_dir.as_deref())?;
        // Record only when some output (`--explain` span tree,
        // `--trace-json` file) consumes the sink, so plain compiles keep
        // the allocation-free disabled path.
        let obs = if opts.explain || opts.trace_json.is_some() {
            Obs::enabled()
        } else {
            Obs::disabled()
        };
        let result = service
            .compile_artifact(g, machine, req, &obs)
            .as_ref()
            .clone();
        write_trace(opts.trace_json.as_deref(), &obs)?;
        (result, opts.explain.then(|| obs.render()))
    };
    Ok((result.map_err(|e| e.to_string())?, rendered))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: clasp-cli <analyze|compile|simulate|fuzz|batch|load|corpus|machines> [loop.clasp] [options]\n\
         see `clasp-cli machines` for presets; options: --machine --buses --ports\n\
         --variant --scheduler --backend --model --iterations --dot --kernel --explain\n\
         --trace-json\n\
         --cache-dir --server\n\
         fuzz options: --seed --cases --iterations --shrink --fault --out --threads\n\
         --exact --hard-out --cache-dir\n\
         batch options: --dir --backend --threads --trace-json --cache-dir\n\
         --server --preset --stratum --stratum-loops --seed --strata-csv\n\
         load options: --mix --transport --clients --requests --seed --rate --hard-dir\n\
         --server --json --trace-json --gate --gate-factor\n\
         corpus options: --seed --loops-per-stratum --out --check"
    );
    ExitCode::from(2)
}

/// An `--iterations` value: a trip count the driver accepts from outside.
fn iterations_flag(value: Option<String>) -> Result<i64, String> {
    value
        .and_then(|v| v.parse().ok())
        .filter(|n| (0..=MAX_ITERATIONS).contains(n))
        .ok_or_else(|| format!("--iterations needs a number from 0 to {MAX_ITERATIONS}"))
}

/// A `--buses` or `--ports` override, at most `limit` (the same bound a
/// `.machine` description meets).
fn count_flag(flag: &str, value: Option<String>, limit: u32) -> Result<u32, String> {
    value
        .and_then(|v| v.parse().ok())
        .filter(|&n| n <= limit)
        .ok_or_else(|| format!("{flag} needs a number up to {limit}"))
}

fn build_machine(opts: &Options) -> Result<MachineSpec, String> {
    if let Some(path) = &opts.machine_file {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        return clasp_text::parse_machine(&text).map_err(|e| format!("{path}: {e}"));
    }
    let name = opts.machine.as_str();
    match CLASSIC_PRESETS.iter().find(|(classic, _)| *classic == name) {
        Some((_, build)) => Ok(build(opts.buses, opts.ports)),
        // The parameterized families (mesh4x4, torus3x3, pe-grid2x3,
        // het6c-s2a, ...) are pure functions of their name — no
        // --buses/--ports overrides, exactly as `.machine` text pins them.
        None => presets::by_name(name).ok_or_else(|| format!("unknown machine preset `{name}`")),
    }
}

fn parse_variant(s: &str) -> Result<Variant, String> {
    Ok(match s {
        "simple" => Variant::Simple,
        "simple-iterative" => Variant::SimpleIterative,
        "heuristic" => Variant::Heuristic,
        "heuristic-iterative" => Variant::HeuristicIterative,
        other => return Err(format!("unknown variant `{other}`")),
    })
}

fn load_loop(path: &str) -> Result<Ddg, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    clasp_text::parse_loop(&text).map_err(|e| format!("{path}: {e}"))
}

fn analyze(g: &Ddg) {
    println!(
        "loop {}: {} ops, {} deps, RecMII = {}",
        g.name(),
        g.node_count(),
        g.edge_count(),
        rec_mii(g)
    );
    let sccs = find_sccs(g);
    for (i, scc) in sccs.non_trivial() {
        let names: Vec<&str> = scc.nodes.iter().map(|&n| g.op(n).label()).collect();
        println!(
            "  recurrence (RecMII {}): {{{}}}",
            clasp_ddg::scc_rec_mii(g, &sccs, i),
            names.join(", ")
        );
    }
    let order: Vec<&str> = swing_order(g).iter().map(|&n| g.op(n).label()).collect();
    println!("  assignment order: {}", order.join(", "));
}

/// The driver request both subcommands share: restaging off so the
/// printed registers and kernel table describe the raw modulo schedule,
/// exactly as the paper's tables do.
fn request(opts: &Options, verify: bool) -> CompileRequest {
    CompileRequest {
        backend: opts.backend,
        pipeline: PipelineConfig {
            assign: opts.variant.into(),
            scheduler: opts.scheduler,
            ..PipelineConfig::default()
        },
        register_model: opts.model,
        restage: false,
        iterations: opts.iterations,
        verify,
    }
}

/// Write the sink's Chrome trace-event JSON to `path` if requested.
fn write_trace(trace_json: Option<&str>, obs: &Obs) -> Result<(), String> {
    if let Some(path) = trace_json {
        std::fs::write(path, obs.chrome_trace()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("trace written to {path}");
    }
    Ok(())
}

fn compile(g: &Ddg, opts: &Options) -> Result<(), String> {
    let machine = build_machine(opts)?;
    let req = request(opts, false);
    // The decision log narrates the heuristic assigner's selection
    // cascade; under `--backend exact` the artifact comes from the SAT
    // model instead, so printing it would describe a different
    // assignment than the one shown below.
    if opts.explain && opts.backend == BackendKind::Heuristic {
        let config = req.pipeline;
        let (res, trace) = clasp_core::assign_traced(g, &machine, config.assign, 1);
        res.map_err(|e| e.to_string())?;
        println!("assignment decision log:");
        for event in &trace.events {
            let mut line = event.to_string();
            for (n, op) in g.nodes() {
                line = line.replace(&format!("{n}:"), &format!("{}:", op.label()));
            }
            println!("  {line}");
        }
        println!();
    }
    let (artifact, obs_render) = compile_one(g, &machine, &req, opts)?;
    let baseline = unified_ii(g, &machine, req.pipeline.sched);
    let wg = &artifact.assignment.graph;
    let report = &artifact.report;

    println!("machine:   {machine}");
    match opts.backend {
        BackendKind::Heuristic => {
            println!("variant:   {} / {} scheduler", opts.variant, opts.scheduler)
        }
        BackendKind::Exact => println!("variant:   exact SAT backend (proven minimal II)"),
    }
    println!(
        "II:        {} (unified baseline: {})",
        artifact.ii(),
        baseline.map_or("-".into(), |u| u.to_string())
    );
    println!(
        "copies:    {} inserted; II attempts {}, removals {}",
        artifact.assignment.copy_count(),
        artifact.assignment.stats.ii_attempts,
        artifact.assignment.stats.removals
    );
    println!(
        "registers: MaxLive {}, MVE requirement {}, kernel unroll {}x",
        report.registers_final.max_live,
        report.registers_final.requirement,
        report.registers_final.unroll
    );
    println!("\nplacement:");
    for c in machine.cluster_ids() {
        let names: Vec<String> = artifact
            .assignment
            .nodes_on(c)
            .iter()
            .map(|&n| wg.op(n).label().to_string())
            .collect();
        println!("  {c}: {}", names.join(", "));
    }
    if opts.kernel {
        println!();
        print!("{}", artifact.kernel_table(&machine));
    }
    if opts.dot {
        println!("\n{}", wg.to_dot());
    }
    if opts.explain {
        println!("\n{report}");
        match &obs_render {
            Some(rendered) => {
                println!("\nobservability:");
                print!("{rendered}");
            }
            // Remote compiles do not ship the span tree; the trace JSON
            // (`--trace-json`) carries the same spans.
            None => println!("\nobservability: recorded on the server (use --trace-json)"),
        }
    }
    Ok(())
}

fn simulate(g: &Ddg, opts: &Options) -> Result<(), String> {
    let machine = build_machine(opts)?;
    let (artifact, _) = compile_one(g, &machine, &request(opts, true), opts)?;
    println!(
        "ok: pipelined execution (II = {}) matches sequential execution over {} iterations",
        artifact.ii(),
        opts.iterations
    );
    Ok(())
}

/// `clasp-cli fuzz`: the differential oracle over a seeded case stream.
/// Exits non-zero when any case violates an invariant, so CI can gate on
/// it directly.
fn fuzz(args: &[String]) -> Result<bool, String> {
    let mut config = clasp_oracle::FuzzConfig::default();
    let mut shrink = false;
    let mut out = String::from("results/repros");
    let mut hard_out: Option<String> = None;
    let mut cache_dir: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> Option<String> {
            *i += 1;
            args.get(*i).cloned()
        };
        match args[i].as_str() {
            "--seed" => {
                config.seed = take(&mut i)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs a number")?;
            }
            "--cases" => {
                config.cases = take(&mut i)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--cases needs a number")?;
            }
            "--iterations" => config.iterations = iterations_flag(take(&mut i))?,
            "--fault" => {
                config.fault = take(&mut i)
                    .and_then(|v| clasp_oracle::Fault::parse(&v))
                    .ok_or("--fault is `none`, `skew`, `misplace` or `smear`")?;
            }
            "--threads" => {
                config.threads = take(&mut i)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--threads needs a number")?;
            }
            "--shrink" => shrink = true,
            "--exact" => config.exact = true,
            "--out" => out = take(&mut i).ok_or("--out needs a directory")?,
            "--hard-out" => hard_out = Some(take(&mut i).ok_or("--hard-out needs a directory")?),
            "--cache-dir" => cache_dir = Some(take(&mut i).ok_or("--cache-dir needs a directory")?),
            other => return Err(format!("unknown fuzz option `{other}`")),
        }
        i += 1;
    }

    // The oracle's pipeline goes through the compile service: a case
    // recompiled while shrinking is a cache hit, and with `--cache-dir`
    // repeated fuzz runs share artifacts across processes.
    let service = local_service(cache_dir.as_deref())?;
    let pipeline = |g: &Ddg, m: &MachineSpec| service.oracle_case(g, m);
    let report = if shrink {
        clasp_oracle::run_fuzz_with_repros(&config, &pipeline, std::path::Path::new(&out))
            .map_err(|e| format!("writing reproducers under {out}: {e}"))?
    } else {
        clasp_oracle::run_fuzz(&config, &pipeline)
    };

    for failure in &report.failures {
        println!(
            "case {:04} (seed {:#018x}, loop {}, machine {}):",
            failure.case.index,
            failure.case.case_seed,
            failure.case.graph.name(),
            failure.case.machine.name()
        );
        for v in &failure.violations {
            println!("  [{}] {v}", v.kind());
        }
    }
    for path in &report.repro_files {
        println!("reproducer: {}", path.display());
    }
    for hard in &report.hard {
        println!(
            "hard case {:04}: heuristic II {} vs exact II {} ({} nodes, loop {}, machine {})",
            hard.case.index,
            hard.heuristic,
            hard.exact,
            hard.case.graph.node_count(),
            hard.case.graph.name(),
            hard.case.machine.name()
        );
    }
    if let Some(dir) = &hard_out {
        if !config.exact {
            return Err("--hard-out requires --exact".into());
        }
        let written = clasp_oracle::mine_hard_cases(&report, &pipeline, std::path::Path::new(dir))
            .map_err(|e| format!("mining hard cases under {dir}: {e}"))?;
        for path in &written {
            println!("hard instance: {}", path.display());
        }
    }
    print!(
        "fuzz: {} cases checked (seed {}, fault {}), {} violating",
        report.checked,
        config.seed,
        config.fault,
        report.failures.len()
    );
    if config.exact {
        print!(", {} hard", report.hard.len());
    }
    println!();
    Ok(report.is_clean())
}

/// Parse a seed as decimal or `0x`-prefixed hex.
fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// `clasp-cli corpus`: render the stratified-corpus manifest, or check
/// the committed copy for drift. The manifest is a pure function of
/// (seed, loops-per-stratum); CI regenerates it and `cmp`s against
/// `results/strata-manifest.txt`, so any intentional generator change
/// must recommit that file.
fn corpus_cmd(args: &[String]) -> Result<bool, String> {
    use clasp_loopgen::{strata_manifest, StrataConfig};

    let mut config = StrataConfig::default();
    let mut out: Option<String> = None;
    let mut check: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> Option<String> {
            *i += 1;
            args.get(*i).cloned()
        };
        match args[i].as_str() {
            "--seed" => {
                config.seed = take(&mut i)
                    .as_deref()
                    .and_then(parse_seed)
                    .ok_or("--seed needs a number (decimal or 0x hex)")?;
            }
            "--loops-per-stratum" => {
                config.loops_per_stratum = take(&mut i)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--loops-per-stratum needs a number")?;
            }
            "--out" => out = Some(take(&mut i).ok_or("--out needs a path")?),
            "--check" => check = Some(take(&mut i).ok_or("--check needs a manifest path")?),
            other => return Err(format!("unknown corpus option `{other}`")),
        }
        i += 1;
    }

    let manifest = strata_manifest(config);
    if let Some(path) = &check {
        let committed = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        if committed == manifest {
            println!("corpus manifest {path}: ok");
            return Ok(true);
        }
        eprintln!(
            "corpus manifest drift against {path} — regenerate with\n\
             `clasp-cli corpus --seed 0x{:x} --loops-per-stratum {} --out {path}`",
            config.seed, config.loops_per_stratum
        );
        for (a, b) in manifest.lines().zip(committed.lines()) {
            if a != b {
                eprintln!("  generated: {a}\n  committed: {b}");
            }
        }
        return Ok(false);
    }
    match &out {
        Some(path) => {
            std::fs::write(path, &manifest).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("manifest written to {path}");
        }
        None => print!("{manifest}"),
    }
    Ok(true)
}

/// The preset list `batch` and `machines` share (name, spec), in the
/// order they are printed.
fn preset_list() -> Vec<(&'static str, MachineSpec)> {
    CLASSIC_PRESETS
        .iter()
        .map(|&(name, build)| (name, build(None, None)))
        .collect()
}

/// `clasp-cli batch`: every `.clasp` loop under `--dir` against every
/// preset machine (clustered + unified baseline per pair) in one
/// parallel sweep through the compile cache. Stdout is bit-identical
/// for every `--threads` value; timing goes to stderr.
/// One batch report row from the pair's two compile results — shared
/// verbatim between the local sweep and the `--server` path so the
/// printed rows are bit-identical wherever the compile ran.
fn batch_row(
    clustered: &Result<CompiledArtifact, clasp::PipelineError>,
    unified: &Result<CompiledArtifact, clasp::PipelineError>,
    machine: &MachineSpec,
) -> Result<String, String> {
    let baseline = match unified {
        Ok(a) => a.ii().to_string(),
        Err(_) => "-".into(),
    };
    match clustered {
        Ok(a) => {
            // Content hash of the kernel: CI diffs batch output
            // across thread counts, so this certifies the whole
            // emitted kernel bit-for-bit, not just the II.
            let kernel = clasp_exec::CacheKey::of(&[&a.kernel_table(machine)]).to_string();
            Ok(format!(
                "II {:>2} (unified {:>2}), {} copies, kernel {}",
                a.ii(),
                baseline,
                a.assignment.copy_count(),
                kernel
            ))
        }
        Err(e) => Err(e.to_string()),
    }
}

fn batch(args: &[String]) -> Result<bool, String> {
    use clasp::strata::{machine_by_name, run_sweep, SweepConfig};
    use clasp_loopgen::{generate_stratum, Stratum};

    let mut dir = String::from("loops");
    let mut backend = BackendKind::Heuristic;
    let mut threads = 0usize;
    let mut trace_json: Option<String> = None;
    let mut cache_dir: Option<String> = None;
    let mut server: Option<String> = None;
    let mut preset_names: Vec<String> = Vec::new();
    let mut strata: Vec<Stratum> = Vec::new();
    let mut stratum_loops = 40usize;
    let mut seed = 0x1998_C1A5u64;
    let mut strata_csv: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> Option<String> {
            *i += 1;
            args.get(*i).cloned()
        };
        match args[i].as_str() {
            "--dir" => dir = take(&mut i).ok_or("--dir needs a directory")?,
            "--backend" => {
                backend = take(&mut i)
                    .and_then(|v| BackendKind::parse(&v))
                    .ok_or("--backend is `heuristic` or `exact`")?;
            }
            "--threads" => {
                threads = take(&mut i)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--threads needs a number")?;
            }
            "--trace-json" => trace_json = Some(take(&mut i).ok_or("--trace-json needs a path")?),
            "--cache-dir" => cache_dir = Some(take(&mut i).ok_or("--cache-dir needs a directory")?),
            "--server" => server = Some(take(&mut i).ok_or("--server needs host:port")?),
            "--preset" => {
                let name = take(&mut i).ok_or("--preset needs a machine preset name")?;
                if machine_by_name(&name).is_none() {
                    return Err(format!("unknown machine preset `{name}`"));
                }
                preset_names.push(name);
            }
            "--stratum" => match take(&mut i).as_deref() {
                Some("all") => strata = Stratum::ALL.to_vec(),
                Some(name) => {
                    strata.push(Stratum::parse(name).ok_or(format!("unknown stratum `{name}`"))?);
                }
                None => return Err("--stratum needs a stratum name or `all`".into()),
            },
            "--stratum-loops" => {
                stratum_loops = take(&mut i)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--stratum-loops needs a number")?;
            }
            "--seed" => {
                seed = take(&mut i)
                    .as_deref()
                    .and_then(parse_seed)
                    .ok_or("--seed needs a number (decimal or 0x hex)")?;
            }
            "--strata-csv" => strata_csv = Some(take(&mut i).ok_or("--strata-csv needs a path")?),
            other => return Err(format!("unknown batch option `{other}`")),
        }
        i += 1;
    }

    // Loop set: generated strata when any --stratum is given, the .clasp
    // files under --dir otherwise.
    let mut loops = Vec::new();
    if strata.is_empty() {
        let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
            .map_err(|e| format!("{dir}: {e}"))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "clasp"))
            .collect();
        paths.sort(); // deterministic pair order regardless of readdir order
        if paths.is_empty() {
            return Err(format!("no .clasp loops under {dir}"));
        }
        for p in &paths {
            let stem = p
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
            loops.push((stem, load_loop(&p.to_string_lossy())?));
        }
    } else {
        for &s in &strata {
            for g in generate_stratum(s, stratum_loops, seed) {
                loops.push((g.name().to_string(), g));
            }
        }
    }
    // Machine set: the named --preset machines, or the classic list.
    let machines: Vec<(String, MachineSpec)> = if preset_names.is_empty() {
        preset_list()
            .into_iter()
            .map(|(n, m)| (n.to_string(), m))
            .collect()
    } else {
        preset_names
            .iter()
            .map(|n| (n.clone(), machine_by_name(n).expect("validated above")))
            .collect()
    };
    let pairs: Vec<(usize, usize)> = (0..loops.len())
        .flat_map(|l| (0..machines.len()).map(move |m| (l, m)))
        .collect();

    let req = CompileRequest {
        backend,
        ..CompileRequest::default()
    };
    let t0 = std::time::Instant::now();
    let (rows, footer) = if let Some(addr) = &server {
        // Remote mode: one connection, pairs in deterministic order.
        // Rows come from the daemon's canonical artifacts and print
        // bit-identically to a local run; the footer skips local cache
        // state (the daemon owns it — ask via the `stats` verb).
        let mut client = Client::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
        let mut compile = |g: &Ddg, machine: &MachineSpec| {
            let mut sreq = ServiceRequest::new(
                clasp_text::write_loop(g),
                clasp_text::write_machine(machine),
            );
            sreq.request = req;
            let reply = client.compile(&sreq).map_err(|e| format!("{addr}: {e}"))?;
            reply.decode().map_err(|e| format!("{addr}: {e}"))
        };
        let mut rows = Vec::with_capacity(pairs.len());
        for &(l, m) in &pairs {
            let (_, g) = &loops[l];
            let (_, machine) = &machines[m];
            let clustered = compile(g, machine)?;
            let unified = compile(g, &machine.unified_equivalent())?;
            rows.push(batch_row(&clustered, &unified, machine));
        }
        (rows, None)
    } else {
        let service = local_service(cache_dir.as_deref()).map(std::sync::Arc::new)?;
        let obs = Obs::enabled();
        let rows = clasp_exec::sweep_observed(
            threads,
            &pairs,
            |_, &(l, m)| format!("loop {} on {}", loops[l].0, machines[m].0),
            |_, &(l, m)| {
                let (_, g) = &loops[l];
                let (_, machine) = &machines[m];
                let clustered = service.compile_artifact(g, machine, &req, &obs);
                let unified =
                    service.compile_artifact(g, &machine.unified_equivalent(), &req, &obs);
                batch_row(clustered.as_ref(), unified.as_ref(), machine)
            },
            &obs,
        )
        .map_err(|p| format!("batch sweep panicked: {p}"))?;
        write_trace(trace_json.as_deref(), &obs)?;
        (rows, Some((service, obs)))
    };
    let elapsed = t0.elapsed();

    let mut failed = 0usize;
    for (&(l, m), row) in pairs.iter().zip(&rows) {
        let label = format!("{} x {}", loops[l].0, machines[m].0);
        match row {
            Ok(line) => println!("{label:<24} {line}"),
            Err(e) => {
                failed += 1;
                println!("{label:<24} FAILED: {e}");
            }
        }
    }
    match &footer {
        Some((service, obs)) => {
            println!(
                "batch: {} loops x {} machines = {} pairs, {} failed; cache {}",
                loops.len(),
                machines.len(),
                pairs.len(),
                failed,
                service.stats()
            );
            // Every counter depends only on work done, never on worker
            // interleaving, so this block is part of the bit-identical
            // report.
            println!("counters:");
            for (name, value) in obs.counters() {
                println!("  {name} = {value}");
            }
        }
        None => {
            println!(
                "batch: {} loops x {} machines = {} pairs, {} failed; server",
                loops.len(),
                machines.len(),
                pairs.len(),
                failed
            );
        }
    }
    if let Some(csv_path) = &strata_csv {
        let Some((service, _)) = &footer else {
            return Err("--strata-csv needs a local sweep (drop --server)".into());
        };
        // The aggregated {preset × stratum} degradation report. Pairs the
        // batch already compiled come back as cache hits, so this adds
        // only the strata/presets the row sweep above skipped.
        let sweep_cfg = SweepConfig {
            presets: machines.iter().map(|(n, _)| n.clone()).collect(),
            loops_per_stratum: stratum_loops,
            seed,
            threads,
        };
        let report = run_sweep(&sweep_cfg, service)?;
        std::fs::write(csv_path, report.render_csv()).map_err(|e| format!("{csv_path}: {e}"))?;
        println!("strata csv: {csv_path} ({} rows)", report.rows.len());
    }
    eprintln!(
        "batch: {} workers, {elapsed:.1?}",
        clasp_exec::resolve_threads(threads, pairs.len())
    );
    Ok(failed == 0)
}

fn machines() {
    println!("presets (defaults in parentheses; override with --buses/--ports):");
    for (name, m) in preset_list() {
        println!("  {name:<8} {m}");
    }
    println!(
        "\nparameterized families (pure functions of the name; no overrides):\n\
         \x20 mesh{{R}}x{{C}}     R x C grid of 1-wide PEs, p2p mesh links\n\
         \x20 torus{{R}}x{{C}}    mesh plus row/column wraparound links\n\
         \x20 pe-grid{{R}}x{{C}}  mesh fabric over a heterogeneous PE cycle\n\
         \x20 het{{N}}c-s{{SEED}} N clusters with a machgen-style FU mix from hex SEED"
    );
    println!("examples:");
    for name in clasp::strata::DEFAULT_SWEEP_PRESETS {
        if let Some(m) = clasp::strata::machine_by_name(name) {
            println!("  {name:<12} {m}");
        }
    }
}

fn load(args: &[String]) -> Result<bool, String> {
    use clasp::load::{run_load_suite, LoadProfile, Transport};
    use clasp_load::{committed_cell_field, Mix};

    let mut profile = LoadProfile {
        hard_dir: Some("results/hard".into()),
        ..LoadProfile::default()
    };
    let mut trace_json: Option<String> = None;
    let mut json_out: Option<String> = None;
    let mut gate: Option<String> = None;
    let mut gate_factor = 8.0f64;
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> Option<String> {
            *i += 1;
            args.get(*i).cloned()
        };
        match args[i].as_str() {
            "--mix" => match take(&mut i).as_deref() {
                Some("all") => {}
                Some(name) => {
                    profile.mixes = vec![Mix::parse(name).ok_or(format!("unknown mix `{name}`"))?];
                }
                None => return Err("--mix needs hot|cold|mixed|all".into()),
            },
            "--transport" => match take(&mut i).as_deref() {
                Some("all") => {}
                Some(name) => {
                    profile.transports =
                        vec![Transport::parse(name).ok_or(format!("unknown transport `{name}`"))?];
                }
                None => return Err("--transport needs inproc|tcp|all".into()),
            },
            "--clients" => match take(&mut i).as_deref() {
                Some("all") => {}
                Some(n) => {
                    profile.clients = vec![n.parse().map_err(|_| "--clients needs a number")?];
                }
                None => return Err("--clients needs a number or `all`".into()),
            },
            "--requests" => {
                profile.requests_per_cell = take(&mut i)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--requests needs a number")?;
            }
            "--seed" => {
                profile.seed = take(&mut i)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs a number")?;
            }
            "--rate" => {
                profile.rate = take(&mut i)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--rate needs requests/second")?;
            }
            "--hard-dir" => {
                profile.hard_dir = Some(take(&mut i).ok_or("--hard-dir needs a directory")?.into());
            }
            "--server" => {
                use std::net::ToSocketAddrs;
                let addr = take(&mut i).ok_or("--server needs host:port")?;
                profile.server = Some(
                    addr.to_socket_addrs()
                        .map_err(|e| format!("{addr}: {e}"))?
                        .next()
                        .ok_or(format!("{addr}: no address"))?,
                );
                profile.transports = vec![Transport::Tcp];
            }
            "--json" => json_out = Some(take(&mut i).ok_or("--json needs a path")?),
            "--trace-json" => trace_json = Some(take(&mut i).ok_or("--trace-json needs a path")?),
            "--gate" => gate = Some(take(&mut i).ok_or("--gate needs a BENCH_load.json path")?),
            "--gate-factor" => {
                gate_factor = take(&mut i)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--gate-factor needs a number")?;
            }
            other => return Err(format!("unknown load option `{other}`")),
        }
        i += 1;
    }

    // Read the baseline before the run: `--json` may name the same file
    // and overwrite it with this run's numbers.
    let committed = gate
        .as_deref()
        .map(|path| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}")))
        .transpose()?;

    let obs = if trace_json.is_some() {
        Obs::enabled()
    } else {
        Obs::disabled()
    };
    let suite = run_load_suite(&profile, &obs)?;
    if let Some(path) = &trace_json {
        std::fs::write(path, obs.chrome_trace()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("trace: {path}");
    }

    for cell in &suite.cells {
        println!("{}", cell.human_line());
    }
    let w = &suite.watermark;
    let opt = |v: Option<u64>| v.map_or("n/a".to_string(), |v| v.to_string());
    println!(
        "resources: fd {} -> peak {} -> {}; rss peak {} KiB",
        opt(w.before.fds),
        opt(w.fd_peak),
        opt(w.after.fds),
        opt(w.rss_peak_kb)
    );
    if let Some(path) = &json_out {
        std::fs::write(path, suite.render_json()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("report: {path}");
    }

    let mut ok = true;
    let errors = suite.total_errors();
    if errors > 0 {
        println!("FAIL: {errors} load errors");
        ok = false;
    }
    // A handful of fds of slack: the trace/report files and allocator
    // pools opened during the run, never per-connection growth.
    if let Some(growth) = w.fd_growth() {
        if growth > 4 {
            println!("FAIL: fd leak — {growth} more fds open after the run than before");
            ok = false;
        }
    }
    if let Some(committed) = &committed {
        for cell in &suite.cells {
            let p99 = cell.report.overall.percentile(0.99);
            match committed_cell_field(committed, &cell.name, "p99_ns") {
                Some(base) if base > 0 => {
                    // Committed baseline clamped up to the noise floor:
                    // µs-scale hot-cell p99s are hiccup-dominated, so a
                    // raw ratio against a lucky baseline is meaningless.
                    let ratio = clasp_load::gate_ratio(p99, base);
                    let verdict = if ratio > gate_factor { "FAIL" } else { "ok" };
                    println!(
                        "gate {:<18} p99 {:.2}x committed ({verdict}, factor {gate_factor})",
                        cell.name, ratio
                    );
                    if ratio > gate_factor {
                        ok = false;
                    }
                }
                _ => println!("gate {:<18} no committed baseline — skipped", cell.name),
            }
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    if cmd == "machines" {
        machines();
        return ExitCode::SUCCESS;
    }
    if cmd == "fuzz" || cmd == "batch" || cmd == "load" || cmd == "corpus" {
        let outcome = match cmd.as_str() {
            "fuzz" => fuzz(&args[1..]),
            "batch" => batch(&args[1..]),
            "corpus" => corpus_cmd(&args[1..]),
            _ => load(&args[1..]),
        };
        return match outcome {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let Some(path) = args.get(1) else {
        return usage();
    };
    let mut opts = Options::default();
    let mut i = 2;
    while i < args.len() {
        let take = |i: &mut usize| -> Option<String> {
            *i += 1;
            args.get(*i).cloned()
        };
        let flag = args[i].clone();
        let result: Result<(), String> = match flag.as_str() {
            "--machine" => take(&mut i)
                .map(|v| opts.machine = v)
                .ok_or("--machine needs a value".into()),
            "--machine-file" => take(&mut i)
                .map(|v| opts.machine_file = Some(v))
                .ok_or("--machine-file needs a path".into()),
            "--buses" => {
                count_flag("--buses", take(&mut i), MAX_BUSES).map(|v| opts.buses = Some(v))
            }
            "--ports" => {
                count_flag("--ports", take(&mut i), MAX_PORTS).map(|v| opts.ports = Some(v))
            }
            "--variant" => match take(&mut i) {
                Some(v) => parse_variant(&v).map(|p| opts.variant = p),
                None => Err("--variant needs a value".into()),
            },
            "--scheduler" => take(&mut i)
                .and_then(|v| SchedulerKind::parse(&v))
                .map(|k| opts.scheduler = k)
                .ok_or("--scheduler is `iterative` or `swing`".into()),
            "--backend" => take(&mut i)
                .and_then(|v| BackendKind::parse(&v))
                .map(|k| opts.backend = k)
                .ok_or("--backend is `heuristic` or `exact`".into()),
            "--model" => take(&mut i)
                .and_then(|v| RegisterModelKind::parse(&v))
                .map(|k| opts.model = k)
                .ok_or("--model is `mve` or `rotating`".into()),
            "--iterations" => iterations_flag(take(&mut i)).map(|v| opts.iterations = v),
            "--dot" => {
                opts.dot = true;
                Ok(())
            }
            "--kernel" => {
                opts.kernel = true;
                Ok(())
            }
            "--explain" => {
                opts.explain = true;
                Ok(())
            }
            "--trace-json" => take(&mut i)
                .map(|v| opts.trace_json = Some(v))
                .ok_or("--trace-json needs a path".into()),
            "--cache-dir" => take(&mut i)
                .map(|v| opts.cache_dir = Some(v))
                .ok_or("--cache-dir needs a directory".into()),
            "--server" => take(&mut i)
                .map(|v| opts.server = Some(v))
                .ok_or("--server needs host:port".into()),
            other => Err(format!("unknown option `{other}`")),
        };
        if let Err(e) = result {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
        i += 1;
    }

    let g = match load_loop(path) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let outcome = match cmd.as_str() {
        "analyze" => {
            analyze(&g);
            Ok(())
        }
        "compile" => compile(&g, &opts),
        "simulate" => simulate(&g, &opts),
        _ => {
            return usage();
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
