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
//! Every subcommand reads all of its flags before it does any work, and
//! one `main` maps the outcome to the exit code: 2 for a bad flag, value
//! or flag combination; 1 for a failed run (an unreadable or invalid
//! input, a refused compile, an I/O error) and for a run that reports
//! failures (fuzz violations, `FAILED` batch rows, load gates, corpus
//! drift); 0 otherwise. Every `--seed` reads decimal or `0x` hex. Output
//! goes line by line through one locked stdout; a reader that closes the
//! pipe early ends the run quietly with exit 0.
//!
//! `fuzz` runs the differential oracle over a seeded stream of random
//! (loop, machine) pairs and exits non-zero on any invariant violation;
//! with `--shrink`, violating cases are minimized and written as
//! `.clasp` + `.machine` reproducer pairs under `--out` (default
//! `results/repros`; the directory is created and reproducers from
//! prior runs are removed first). `--fault` corrupts each compiled
//! artifact on purpose — a self-test proving the oracle detects bugs.
//! Cases are checked on `--threads` workers (0 = one per hardware
//! thread); the report is bit-identical for every value. `--hard-out`
//! (which needs `--exact`) mines the cases where the heuristic misses
//! the exact II.
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
//! `--seed`; `--strata-csv PATH` (which needs `--stratum`) also writes
//! the per-(preset, stratum) sums of the batch's own (clustered II,
//! unified II) pairs, locally or on `--server` (see `clasp::strata`).
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
use clasp::strata::{machine_by_name, SweepReport, SweepRow, CLASSIC_PRESETS};
use clasp::{
    unified_ii, BackendKind, CompileRequest, CompiledArtifact, PipelineError, RegisterModelKind,
    MAX_ITERATIONS,
};
use clasp_core::Variant;
use clasp_ddg::{find_sccs, rec_mii, swing_order, Ddg};
use clasp_loopgen::{generate_stratum, Stratum};
use clasp_machine::{presets, MachineSpec};
use clasp_obs::Obs;
use clasp_sched::SchedulerKind;
use clasp_text::limits::{MAX_BUSES, MAX_PORTS};
use std::io::{self, Write};
use std::process::ExitCode;

const USAGE: &str = "\
usage: clasp-cli <analyze|compile|simulate|fuzz|batch|load|corpus|machines> [loop.clasp] [options]
see `clasp-cli machines` for presets; options: --machine --buses --ports
--variant --scheduler --backend --model --iterations --dot --kernel --explain
--trace-json
--cache-dir --server
fuzz options: --seed --cases --iterations --shrink --fault --out --threads
--exact --hard-out --cache-dir
batch options: --dir --backend --threads --trace-json --cache-dir
--server --preset --stratum --stratum-loops --seed --strata-csv
load options: --mix --transport --clients --requests --seed --rate --hard-dir
--server --json --trace-json --gate --gate-factor
corpus options: --seed --loops-per-stratum --out --check";

/// How a subcommand ends when it does not succeed; `main` maps each to
/// the process's exit code.
enum Exit {
    /// A bad flag, value or flag combination, found before any work:
    /// exit 2.
    Usage(String),
    /// The run failed: exit 1.
    Failed(String),
    /// Writing stdout failed. A closed pipe ends the run quietly, exit 0.
    Io(io::Error),
}

impl From<String> for Exit {
    fn from(e: String) -> Self {
        Exit::Failed(e)
    }
}

impl From<io::Error> for Exit {
    fn from(e: io::Error) -> Self {
        Exit::Io(e)
    }
}

/// One subcommand's flags, read left to right.
struct Flags<'a>(std::slice::Iter<'a, String>);

impl<'a> Flags<'a> {
    /// Hand every flag of `cmd`'s `args` to `apply`, which reads its
    /// value, if it takes one, with [`Flags::take`], and answers `false`
    /// for a flag `cmd` does not know.
    fn read(
        cmd: &str,
        args: &'a [String],
        mut apply: impl FnMut(&'a str, &mut Flags<'a>) -> Result<bool, Exit>,
    ) -> Result<(), Exit> {
        let mut flags = Flags(args.iter());
        while let Some(flag) = flags.0.next() {
            if !apply(flag, &mut flags)? {
                return Err(Exit::Usage(format!("unknown {cmd} option `{flag}`")));
            }
        }
        Ok(())
    }

    /// The value after `flag`, converted by `read`. A missing or
    /// unreadable value is the usage error "`flag` `expect`".
    fn take<T>(
        &mut self,
        flag: &str,
        expect: &str,
        read: impl FnOnce(&'a str) -> Option<T>,
    ) -> Result<T, Exit> {
        self.0
            .next()
            .and_then(|v| read(v))
            .ok_or_else(|| Exit::Usage(format!("{flag} {expect}")))
    }
}

const NUMBER: &str = "needs a number";
const SEED: &str = "needs a number (decimal or 0x hex)";

fn number<T: std::str::FromStr>(v: &str) -> Option<T> {
    v.parse().ok()
}

fn text(v: &str) -> Option<String> {
    Some(v.to_string())
}

/// A seed as decimal or `0x`-prefixed hex.
fn seed(v: &str) -> Option<u64> {
    match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
}

/// An `--iterations` value: a trip count the driver accepts from outside.
fn iterations(flags: &mut Flags, flag: &str) -> Result<i64, Exit> {
    flags.take(
        flag,
        &format!("needs a number from 0 to {MAX_ITERATIONS}"),
        |v| v.parse().ok().filter(|n| (0..=MAX_ITERATIONS).contains(n)),
    )
}

/// A `--buses` or `--ports` override, at most `limit` (the same bound a
/// `.machine` description meets).
fn count(flags: &mut Flags, flag: &str, limit: u32) -> Result<u32, Exit> {
    flags.take(flag, &format!("needs a number up to {limit}"), |v| {
        v.parse().ok().filter(|&n| n <= limit)
    })
}

/// The machine `compile` and `simulate` target: a preset resolved while
/// the flags are read, or a `.machine` file read when the run starts.
enum MachineArg {
    Preset(MachineSpec),
    File(String),
}

/// The flags `analyze`, `compile` and `simulate` share.
struct Options {
    machine: MachineArg,
    variant: Variant,
    req: CompileRequest,
    dot: bool,
    kernel: bool,
    explain: bool,
    trace_json: Option<String>,
    cache_dir: Option<String>,
    server: Option<String>,
}

impl Options {
    fn read(cmd: &str, args: &[String]) -> Result<Options, Exit> {
        let mut name = "2c-gp";
        let mut machine_file = None;
        let (mut buses, mut ports) = (None, None);
        let mut opts = Options {
            machine: MachineArg::File(String::new()),
            variant: Variant::HeuristicIterative,
            // Restaging off, so the printed registers and kernel table
            // describe the raw modulo schedule, as the paper's tables do.
            req: CompileRequest {
                restage: false,
                verify: false,
                ..CompileRequest::default()
            },
            dot: false,
            kernel: false,
            explain: false,
            trace_json: None,
            cache_dir: None,
            server: None,
        };
        Flags::read(cmd, args, |flag, v| {
            match flag {
                "--machine" => name = v.take(flag, "needs a value", Some)?,
                "--machine-file" => machine_file = Some(v.take(flag, "needs a path", text)?),
                "--buses" => buses = Some(count(v, flag, MAX_BUSES)?),
                "--ports" => ports = Some(count(v, flag, MAX_PORTS)?),
                "--variant" => {
                    opts.variant = v.take(
                        flag,
                        "is `simple`, `simple-iterative`, `heuristic` or `heuristic-iterative`",
                        variant,
                    )?;
                }
                "--scheduler" => {
                    opts.req.pipeline.scheduler =
                        v.take(flag, "is `iterative` or `swing`", SchedulerKind::parse)?;
                }
                "--backend" => {
                    opts.req.backend =
                        v.take(flag, "is `heuristic` or `exact`", BackendKind::parse)?;
                }
                "--model" => {
                    opts.req.register_model =
                        v.take(flag, "is `mve` or `rotating`", RegisterModelKind::parse)?;
                }
                "--iterations" => opts.req.iterations = iterations(v, flag)?,
                "--dot" => opts.dot = true,
                "--kernel" => opts.kernel = true,
                "--explain" => opts.explain = true,
                "--trace-json" => opts.trace_json = Some(v.take(flag, "needs a path", text)?),
                "--cache-dir" => opts.cache_dir = Some(v.take(flag, "needs a directory", text)?),
                "--server" => opts.server = Some(v.take(flag, "needs host:port", text)?),
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        opts.req.pipeline.assign = opts.variant.into();
        opts.machine = match machine_file {
            Some(path) => MachineArg::File(path),
            None => MachineArg::Preset(preset(name, buses, ports)?),
        };
        Ok(opts)
    }

    fn machine(&self) -> Result<MachineSpec, String> {
        match &self.machine {
            MachineArg::Preset(m) => Ok(m.clone()),
            MachineArg::File(path) => {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                clasp_text::parse_machine(&text).map_err(|e| format!("{path}: {e}"))
            }
        }
    }
}

/// A machine preset by name. `--buses`/`--ports` apply to the classic
/// names; the parameterized families (mesh4x4, torus3x3, pe-grid2x3,
/// het6c-s2a, ...) are pure functions of their name, exactly as
/// `.machine` text pins them.
fn preset(name: &str, buses: Option<u32>, ports: Option<u32>) -> Result<MachineSpec, Exit> {
    match CLASSIC_PRESETS.iter().find(|(classic, _)| *classic == name) {
        Some((_, build)) => Ok(build(buses, ports)),
        None => presets::by_name(name)
            .ok_or_else(|| Exit::Usage(format!("unknown machine preset `{name}`"))),
    }
}

fn variant(s: &str) -> Option<Variant> {
    Some(match s {
        "simple" => Variant::Simple,
        "simple-iterative" => Variant::SimpleIterative,
        "heuristic" => Variant::Heuristic,
        "heuristic-iterative" => Variant::HeuristicIterative,
        _ => return None,
    })
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

/// One compile on the `--server` daemon at `addr`: the canonical loop
/// and machine texts out, the canonical artifact (or the typed failure)
/// back, bit-identical to a local compile, with the Chrome trace when
/// `capture_trace` asks for one.
fn remote_compile(
    client: &mut Client,
    addr: &str,
    g: &Ddg,
    machine: &MachineSpec,
    req: &CompileRequest,
    capture_trace: bool,
) -> Result<(Result<CompiledArtifact, PipelineError>, Option<String>), String> {
    let mut sreq = ServiceRequest::new(
        clasp_text::write_loop(g),
        clasp_text::write_machine(machine),
    );
    sreq.request = *req;
    sreq.capture_trace = capture_trace;
    let reply = client.compile(&sreq).map_err(|e| format!("{addr}: {e}"))?;
    let result = reply.decode().map_err(|e| format!("{addr}: {e}"))?;
    Ok((result, reply.trace))
}

fn connect(addr: &str) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("{addr}: {e}"))
}

/// Write a Chrome trace-event JSON file to `path` if one was requested.
fn write_trace(path: Option<&str>, trace: impl FnOnce() -> String) -> Result<(), String> {
    if let Some(path) = path {
        std::fs::write(path, trace()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("trace written to {path}");
    }
    Ok(())
}

/// The one compile behind `compile` and `simulate`: on the `--server`
/// daemon or through a local service, writing the `--trace-json` file
/// either way. Also returns the span tree of a local compile under
/// `--explain`; a daemon ships only the trace JSON.
fn compile_one(
    g: &Ddg,
    machine: &MachineSpec,
    req: &CompileRequest,
    opts: &Options,
) -> Result<(CompiledArtifact, Option<String>), String> {
    let (result, rendered) = if let Some(addr) = &opts.server {
        let capture = opts.trace_json.is_some();
        let (result, trace) = remote_compile(&mut connect(addr)?, addr, g, machine, req, capture)?;
        if let Some(trace) = trace {
            write_trace(opts.trace_json.as_deref(), || trace)?;
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
        write_trace(opts.trace_json.as_deref(), || obs.chrome_trace())?;
        (result, opts.explain.then(|| obs.render()))
    };
    Ok((result.map_err(|e| e.to_string())?, rendered))
}

fn load_loop(path: &str) -> Result<Ddg, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    clasp_text::parse_loop(&text).map_err(|e| format!("{path}: {e}"))
}

fn analyze(g: &Ddg, out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "loop {}: {} ops, {} deps, RecMII = {}",
        g.name(),
        g.node_count(),
        g.edge_count(),
        rec_mii(g)
    )?;
    let sccs = find_sccs(g);
    for (i, scc) in sccs.non_trivial() {
        let names: Vec<&str> = scc.nodes.iter().map(|&n| g.op(n).label()).collect();
        writeln!(
            out,
            "  recurrence (RecMII {}): {{{}}}",
            clasp_ddg::scc_rec_mii(g, &sccs, i),
            names.join(", ")
        )?;
    }
    let order: Vec<&str> = swing_order(g).iter().map(|&n| g.op(n).label()).collect();
    writeln!(out, "  assignment order: {}", order.join(", "))
}

fn compile(g: &Ddg, opts: &Options, out: &mut dyn Write) -> Result<(), Exit> {
    let machine = opts.machine()?;
    let req = opts.req;
    // The decision log narrates the heuristic assigner's selection
    // cascade; under `--backend exact` the artifact comes from the SAT
    // model instead, so printing it would describe a different
    // assignment than the one shown below.
    if opts.explain && req.backend == BackendKind::Heuristic {
        let (res, trace) = clasp_core::assign_traced(g, &machine, req.pipeline.assign, 1);
        res.map_err(|e| e.to_string())?;
        writeln!(out, "assignment decision log:")?;
        for event in &trace.events {
            let mut line = event.to_string();
            for (n, op) in g.nodes() {
                line = line.replace(&format!("{n}:"), &format!("{}:", op.label()));
            }
            writeln!(out, "  {line}")?;
        }
        writeln!(out)?;
    }
    let (artifact, obs_render) = compile_one(g, &machine, &req, opts)?;
    let baseline = unified_ii(g, &machine, req.pipeline.sched);
    let wg = &artifact.assignment.graph;
    let report = &artifact.report;

    writeln!(out, "machine:   {machine}")?;
    match req.backend {
        BackendKind::Heuristic => writeln!(
            out,
            "variant:   {} / {} scheduler",
            opts.variant, req.pipeline.scheduler
        )?,
        BackendKind::Exact => writeln!(out, "variant:   exact SAT backend (proven minimal II)")?,
    }
    writeln!(
        out,
        "II:        {} (unified baseline: {})",
        artifact.ii(),
        baseline.map_or("-".into(), |u| u.to_string())
    )?;
    writeln!(
        out,
        "copies:    {} inserted; II attempts {}, removals {}",
        artifact.assignment.copy_count(),
        artifact.assignment.stats.ii_attempts,
        artifact.assignment.stats.removals
    )?;
    writeln!(
        out,
        "registers: MaxLive {}, MVE requirement {}, kernel unroll {}x",
        report.registers_final.max_live,
        report.registers_final.requirement,
        report.registers_final.unroll
    )?;
    writeln!(out, "\nplacement:")?;
    for c in machine.cluster_ids() {
        let names: Vec<String> = artifact
            .assignment
            .nodes_on(c)
            .iter()
            .map(|&n| wg.op(n).label().to_string())
            .collect();
        writeln!(out, "  {c}: {}", names.join(", "))?;
    }
    if opts.kernel {
        writeln!(out)?;
        write!(out, "{}", artifact.kernel_table(&machine))?;
    }
    if opts.dot {
        writeln!(out, "\n{}", wg.to_dot())?;
    }
    if opts.explain {
        writeln!(out, "\n{report}")?;
        match &obs_render {
            Some(rendered) => {
                writeln!(out, "\nobservability:")?;
                write!(out, "{rendered}")?;
            }
            // Remote compiles do not ship the span tree; the trace JSON
            // (`--trace-json`) carries the same spans.
            None => writeln!(
                out,
                "\nobservability: recorded on the server (use --trace-json)"
            )?,
        }
    }
    Ok(())
}

fn simulate(g: &Ddg, opts: &Options, out: &mut dyn Write) -> Result<(), Exit> {
    let machine = opts.machine()?;
    let req = CompileRequest {
        verify: true,
        ..opts.req
    };
    let (artifact, _) = compile_one(g, &machine, &req, opts)?;
    writeln!(
        out,
        "ok: pipelined execution (II = {}) matches sequential execution over {} iterations",
        artifact.ii(),
        req.iterations
    )?;
    Ok(())
}

/// `clasp-cli fuzz`: the differential oracle over a seeded case stream.
/// Exits non-zero when any case violates an invariant, so CI can gate on
/// it directly.
fn fuzz(args: &[String], out: &mut dyn Write) -> Result<bool, Exit> {
    let mut config = clasp_oracle::FuzzConfig::default();
    let mut shrink = false;
    let mut repros = String::from("results/repros");
    let mut hard_out: Option<String> = None;
    let mut cache_dir: Option<String> = None;
    Flags::read("fuzz", args, |flag, v| {
        match flag {
            "--seed" => config.seed = v.take(flag, SEED, seed)?,
            "--cases" => config.cases = v.take(flag, NUMBER, number)?,
            "--iterations" => config.iterations = iterations(v, flag)?,
            "--fault" => {
                config.fault = v.take(
                    flag,
                    "is `none`, `skew`, `misplace` or `smear`",
                    clasp_oracle::Fault::parse,
                )?;
            }
            "--threads" => config.threads = v.take(flag, NUMBER, number)?,
            "--shrink" => shrink = true,
            "--exact" => config.exact = true,
            "--out" => repros = v.take(flag, "needs a directory", text)?,
            "--hard-out" => hard_out = Some(v.take(flag, "needs a directory", text)?),
            "--cache-dir" => cache_dir = Some(v.take(flag, "needs a directory", text)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if hard_out.is_some() && !config.exact {
        return Err(Exit::Usage("--hard-out requires --exact".into()));
    }

    // The oracle's pipeline goes through the compile service: a case
    // recompiled while shrinking is a cache hit, and with `--cache-dir`
    // repeated fuzz runs share artifacts across processes.
    let service = local_service(cache_dir.as_deref())?;
    let pipeline = |g: &Ddg, m: &MachineSpec| service.oracle_case(g, m);
    let report = if shrink {
        clasp_oracle::run_fuzz_with_repros(&config, &pipeline, std::path::Path::new(&repros))
            .map_err(|e| format!("writing reproducers under {repros}: {e}"))?
    } else {
        clasp_oracle::run_fuzz(&config, &pipeline)
    };

    for failure in &report.failures {
        writeln!(
            out,
            "case {:04} (seed {:#018x}, loop {}, machine {}):",
            failure.case.index,
            failure.case.case_seed,
            failure.case.graph.name(),
            failure.case.machine.name()
        )?;
        for v in &failure.violations {
            writeln!(out, "  [{}] {v}", v.kind())?;
        }
    }
    for path in &report.repro_files {
        writeln!(out, "reproducer: {}", path.display())?;
    }
    for hard in &report.hard {
        writeln!(
            out,
            "hard case {:04}: heuristic II {} vs exact II {} ({} nodes, loop {}, machine {})",
            hard.case.index,
            hard.heuristic,
            hard.exact,
            hard.case.graph.node_count(),
            hard.case.graph.name(),
            hard.case.machine.name()
        )?;
    }
    if let Some(dir) = &hard_out {
        let written = clasp_oracle::mine_hard_cases(&report, &pipeline, std::path::Path::new(dir))
            .map_err(|e| format!("mining hard cases under {dir}: {e}"))?;
        for path in &written {
            writeln!(out, "hard instance: {}", path.display())?;
        }
    }
    write!(
        out,
        "fuzz: {} cases checked (seed {}, fault {}), {} violating",
        report.checked,
        config.seed,
        config.fault,
        report.failures.len()
    )?;
    if config.exact {
        write!(out, ", {} hard", report.hard.len())?;
    }
    writeln!(out)?;
    Ok(report.is_clean())
}

/// `clasp-cli corpus`: render the stratified-corpus manifest, or check
/// the committed copy for drift. The manifest is a pure function of
/// (seed, loops-per-stratum); CI regenerates it and `cmp`s against
/// `results/strata-manifest.txt`, so any intentional generator change
/// must recommit that file.
fn corpus(args: &[String], out: &mut dyn Write) -> Result<bool, Exit> {
    use clasp_loopgen::{strata_manifest, StrataConfig};

    let mut config = StrataConfig::default();
    let mut path_out: Option<String> = None;
    let mut check: Option<String> = None;
    Flags::read("corpus", args, |flag, v| {
        match flag {
            "--seed" => config.seed = v.take(flag, SEED, seed)?,
            "--loops-per-stratum" => config.loops_per_stratum = v.take(flag, NUMBER, number)?,
            "--out" => path_out = Some(v.take(flag, "needs a path", text)?),
            "--check" => check = Some(v.take(flag, "needs a manifest path", text)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;

    let manifest = strata_manifest(config);
    if let Some(path) = &check {
        let committed = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        if committed == manifest {
            writeln!(out, "corpus manifest {path}: ok")?;
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
    match &path_out {
        Some(path) => {
            std::fs::write(path, &manifest).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("manifest written to {path}");
        }
        None => write!(out, "{manifest}")?,
    }
    Ok(true)
}

/// The preset list `batch` and `machines` share (name, spec), in the
/// order they are printed.
fn preset_list() -> Vec<(String, MachineSpec)> {
    CLASSIC_PRESETS
        .iter()
        .map(|&(name, build)| (name.to_string(), build(None, None)))
        .collect()
}

/// One batch pair: its report line (or failure), shared verbatim between
/// the local sweep and the `--server` path so the printed rows are
/// bit-identical wherever the compile ran, and its (clustered II,
/// unified II) when both compiles succeeded.
struct Row {
    line: Result<String, String>,
    iis: Option<(u32, u32)>,
}

impl Row {
    fn of(
        clustered: &Result<CompiledArtifact, PipelineError>,
        unified: &Result<CompiledArtifact, PipelineError>,
        machine: &MachineSpec,
    ) -> Row {
        let baseline = match unified {
            Ok(a) => a.ii().to_string(),
            Err(_) => "-".into(),
        };
        let line = match clustered {
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
        };
        let iis = match (clustered, unified) {
            (Ok(c), Ok(u)) => Some((c.ii(), u.ii())),
            _ => None,
        };
        Row { line, iis }
    }
}

/// `clasp-cli batch`: every `.clasp` loop under `--dir` (or every
/// generated `--stratum` loop) against every preset machine, clustered
/// and unified baseline per pair, in one parallel sweep through the
/// compile cache. Stdout is bit-identical for every `--threads` value;
/// timing goes to stderr.
fn batch(args: &[String], out: &mut dyn Write) -> Result<bool, Exit> {
    let mut dir = String::from("loops");
    let mut backend = BackendKind::Heuristic;
    let mut threads = 0usize;
    let mut trace_json: Option<String> = None;
    let mut cache_dir: Option<String> = None;
    let mut server: Option<String> = None;
    let mut machines: Vec<(String, MachineSpec)> = Vec::new();
    let mut strata: Vec<Stratum> = Vec::new();
    let mut stratum_loops = 40usize;
    let mut stratum_seed = 0x1998_C1A5u64;
    let mut strata_csv: Option<String> = None;
    Flags::read("batch", args, |flag, v| {
        match flag {
            "--dir" => dir = v.take(flag, "needs a directory", text)?,
            "--backend" => {
                backend = v.take(flag, "is `heuristic` or `exact`", BackendKind::parse)?
            }
            "--threads" => threads = v.take(flag, NUMBER, number)?,
            "--trace-json" => trace_json = Some(v.take(flag, "needs a path", text)?),
            "--cache-dir" => cache_dir = Some(v.take(flag, "needs a directory", text)?),
            "--server" => server = Some(v.take(flag, "needs host:port", text)?),
            "--preset" => {
                machines.push(v.take(flag, "needs a machine preset name", |name| {
                    Some((name.to_string(), machine_by_name(name)?))
                })?);
            }
            "--stratum" => {
                let named = v.take(flag, "needs a stratum name or `all`", |name| match name {
                    "all" => Some(Stratum::ALL.to_vec()),
                    name => Stratum::parse(name).map(|s| vec![s]),
                })?;
                for s in named {
                    if !strata.contains(&s) {
                        strata.push(s);
                    }
                }
            }
            "--stratum-loops" => stratum_loops = v.take(flag, NUMBER, number)?,
            "--seed" => stratum_seed = v.take(flag, SEED, seed)?,
            "--strata-csv" => strata_csv = Some(v.take(flag, "needs a path", text)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if strata_csv.is_some() && strata.is_empty() {
        return Err(Exit::Usage("--strata-csv needs --stratum".into()));
    }
    if machines.is_empty() {
        machines = preset_list();
    }

    // Loop set, each with its stratum: generated strata when any
    // --stratum is given, the .clasp files under --dir otherwise.
    let mut loops: Vec<(String, Ddg, Option<Stratum>)> = Vec::new();
    if strata.is_empty() {
        let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
            .map_err(|e| format!("{dir}: {e}"))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "clasp"))
            .collect();
        paths.sort(); // deterministic pair order regardless of readdir order
        if paths.is_empty() {
            return Err(format!("no .clasp loops under {dir}").into());
        }
        for p in &paths {
            let stem = p
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
            loops.push((stem, load_loop(&p.to_string_lossy())?, None));
        }
    } else {
        for &s in &strata {
            for g in generate_stratum(s, stratum_loops, stratum_seed) {
                loops.push((g.name().to_string(), g, Some(s)));
            }
        }
    }
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
        // The footer skips local cache state (the daemon owns it — ask
        // via the `stats` verb).
        let mut client = connect(addr)?;
        let mut rows = Vec::with_capacity(pairs.len());
        for &(l, m) in &pairs {
            let (_, g, _) = &loops[l];
            let (_, machine) = &machines[m];
            let unified_machine = machine.unified_equivalent();
            let (clustered, _) = remote_compile(&mut client, addr, g, machine, &req, false)?;
            let (unified, _) = remote_compile(&mut client, addr, g, &unified_machine, &req, false)?;
            rows.push(Row::of(&clustered, &unified, machine));
        }
        (rows, None)
    } else {
        let service = local_service(cache_dir.as_deref())?;
        let obs = Obs::enabled();
        let rows = clasp_exec::sweep_observed(
            threads,
            &pairs,
            |_, &(l, m)| format!("loop {} on {}", loops[l].0, machines[m].0),
            |_, &(l, m)| {
                let (_, g, _) = &loops[l];
                let (_, machine) = &machines[m];
                let clustered = service.compile_artifact(g, machine, &req, &obs);
                let unified =
                    service.compile_artifact(g, &machine.unified_equivalent(), &req, &obs);
                Row::of(clustered.as_ref(), unified.as_ref(), machine)
            },
            &obs,
        )
        .map_err(|p| format!("batch sweep panicked: {p}"))?;
        write_trace(trace_json.as_deref(), || obs.chrome_trace())?;
        (rows, Some((service, obs)))
    };
    let elapsed = t0.elapsed();

    let mut failed = 0usize;
    for (&(l, m), row) in pairs.iter().zip(&rows) {
        let label = format!("{} x {}", loops[l].0, machines[m].0);
        match &row.line {
            Ok(line) => writeln!(out, "{label:<24} {line}")?,
            Err(e) => {
                failed += 1;
                writeln!(out, "{label:<24} FAILED: {e}")?;
            }
        }
    }
    let summary = format!(
        "batch: {} loops x {} machines = {} pairs, {} failed;",
        loops.len(),
        machines.len(),
        pairs.len(),
        failed
    );
    match &footer {
        Some((service, obs)) => {
            writeln!(out, "{summary} cache {}", service.stats())?;
            // Every counter depends only on work done, never on worker
            // interleaving, so this block is part of the bit-identical
            // report.
            writeln!(out, "counters:")?;
            for (name, value) in obs.counters() {
                writeln!(out, "  {name} = {value}")?;
            }
        }
        None => writeln!(out, "{summary} server")?,
    }
    if let Some(path) = &strata_csv {
        // The {preset × stratum} degradation table, summed from the
        // pairs above in preset-major, then stratum order.
        let report = SweepReport {
            seed: stratum_seed,
            loops_per_stratum: stratum_loops,
            rows: (0..machines.len())
                .flat_map(|m| strata.iter().map(move |&s| (m, s)))
                .map(|(m, s)| {
                    let iis = pairs
                        .iter()
                        .zip(&rows)
                        .filter(|&(&(l, pm), _)| pm == m && loops[l].2 == Some(s))
                        .map(|(_, row)| row.iis);
                    SweepRow::sum(&machines[m].0, s, iis)
                })
                .collect(),
        };
        std::fs::write(path, report.render_csv()).map_err(|e| format!("{path}: {e}"))?;
        writeln!(out, "strata csv: {path} ({} rows)", report.rows.len())?;
    }
    eprintln!(
        "batch: {} workers, {elapsed:.1?}",
        clasp_exec::resolve_threads(threads, pairs.len())
    );
    Ok(failed == 0)
}

fn machines(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "presets (defaults in parentheses; override with --buses/--ports):"
    )?;
    for (name, m) in preset_list() {
        writeln!(out, "  {name:<8} {m}")?;
    }
    writeln!(
        out,
        "\nparameterized families (pure functions of the name; no overrides):\n\
         \x20 mesh{{R}}x{{C}}     R x C grid of 1-wide PEs, p2p mesh links\n\
         \x20 torus{{R}}x{{C}}    mesh plus row/column wraparound links\n\
         \x20 pe-grid{{R}}x{{C}}  mesh fabric over a heterogeneous PE cycle\n\
         \x20 het{{N}}c-s{{SEED}} N clusters with a machgen-style FU mix from hex SEED"
    )?;
    writeln!(out, "examples:")?;
    for name in clasp::strata::DEFAULT_SWEEP_PRESETS {
        if let Some(m) = machine_by_name(name) {
            writeln!(out, "  {name:<12} {m}")?;
        }
    }
    Ok(())
}

fn load(args: &[String], out: &mut dyn Write) -> Result<bool, Exit> {
    use clasp::load::{run_load_suite, LoadProfile, Transport};
    use clasp_load::{committed_cell_field, Mix};
    use std::net::ToSocketAddrs;

    let mut profile = LoadProfile {
        hard_dir: Some("results/hard".into()),
        ..LoadProfile::default()
    };
    let mut trace_json: Option<String> = None;
    let mut json_out: Option<String> = None;
    let mut gate: Option<String> = None;
    let mut gate_factor = 8.0f64;
    // `all` keeps the profile's list; one value narrows it to that one.
    fn one_or_all<T>(list: &mut Vec<T>, v: &str, read: impl Fn(&str) -> Option<T>) -> Option<()> {
        if v != "all" {
            *list = vec![read(v)?];
        }
        Some(())
    }
    Flags::read("load", args, |flag, v| {
        match flag {
            "--mix" => v.take(flag, "needs hot|cold|mixed|all", |v| {
                one_or_all(&mut profile.mixes, v, Mix::parse)
            })?,
            "--transport" => v.take(flag, "needs inproc|tcp|all", |v| {
                one_or_all(&mut profile.transports, v, Transport::parse)
            })?,
            "--clients" => v.take(flag, "needs a number or `all`", |v| {
                one_or_all(&mut profile.clients, v, number)
            })?,
            "--requests" => profile.requests_per_cell = v.take(flag, NUMBER, number)?,
            "--seed" => profile.seed = v.take(flag, SEED, seed)?,
            "--rate" => profile.rate = v.take(flag, "needs requests/second", number)?,
            "--hard-dir" => {
                profile.hard_dir = Some(v.take(flag, "needs a directory", text)?.into());
            }
            "--server" => {
                profile.server = Some(v.take(flag, "needs host:port", |addr| {
                    addr.to_socket_addrs().ok()?.next()
                })?);
                profile.transports = vec![Transport::Tcp];
            }
            "--json" => json_out = Some(v.take(flag, "needs a path", text)?),
            "--trace-json" => trace_json = Some(v.take(flag, "needs a path", text)?),
            "--gate" => gate = Some(v.take(flag, "needs a BENCH_load.json path", text)?),
            "--gate-factor" => gate_factor = v.take(flag, NUMBER, number)?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;

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
    write_trace(trace_json.as_deref(), || obs.chrome_trace())?;

    for cell in &suite.cells {
        writeln!(out, "{}", cell.human_line())?;
    }
    let w = &suite.watermark;
    let opt = |v: Option<u64>| v.map_or("n/a".to_string(), |v| v.to_string());
    writeln!(
        out,
        "resources: fd {} -> peak {} -> {}; rss peak {} KiB",
        opt(w.before.fds),
        opt(w.fd_peak),
        opt(w.after.fds),
        opt(w.rss_peak_kb)
    )?;
    if let Some(path) = &json_out {
        std::fs::write(path, suite.render_json()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("report: {path}");
    }

    let mut ok = true;
    let errors = suite.total_errors();
    if errors > 0 {
        writeln!(out, "FAIL: {errors} load errors")?;
        ok = false;
    }
    // A handful of fds of slack: the trace/report files and allocator
    // pools opened during the run, never per-connection growth.
    if let Some(growth) = w.fd_growth() {
        if growth > 4 {
            writeln!(
                out,
                "FAIL: fd leak — {growth} more fds open after the run than before"
            )?;
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
                    writeln!(
                        out,
                        "gate {:<18} p99 {:.2}x committed ({verdict}, factor {gate_factor})",
                        cell.name, ratio
                    )?;
                    if ratio > gate_factor {
                        ok = false;
                    }
                }
                _ => writeln!(
                    out,
                    "gate {:<18} no committed baseline — skipped",
                    cell.name
                )?,
            }
        }
    }
    Ok(ok)
}

/// Read the subcommand's flags, then run it; `Ok(false)` when the run's
/// report names failures (fuzz violations, `FAILED` batch rows, load
/// gates, corpus drift).
fn run(args: &[String], out: &mut dyn Write) -> Result<bool, Exit> {
    let Some((cmd, args)) = args.split_first() else {
        return Err(Exit::Usage(format!("no subcommand given\n{USAGE}")));
    };
    let clean = match cmd.as_str() {
        "analyze" | "compile" | "simulate" => {
            let Some((path, args)) = args.split_first() else {
                return Err(Exit::Usage(format!("{cmd} needs a loop file\n{USAGE}")));
            };
            let opts = Options::read(cmd, args)?;
            let g = load_loop(path)?;
            match cmd.as_str() {
                "analyze" => analyze(&g, out)?,
                "compile" => compile(&g, &opts, out)?,
                _ => simulate(&g, &opts, out)?,
            }
            true
        }
        "fuzz" => fuzz(args, out)?,
        "batch" => batch(args, out)?,
        "load" => load(args, out)?,
        "corpus" => corpus(args, out)?,
        "machines" => {
            Flags::read(cmd, args, |_, _| Ok(false))?;
            machines(out)?;
            true
        }
        other => {
            return Err(Exit::Usage(format!(
                "unknown subcommand `{other}`\n{USAGE}"
            )))
        }
    };
    out.flush()?;
    Ok(clean)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args, &mut io::stdout().lock()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(Exit::Usage(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
        Err(Exit::Failed(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        Err(Exit::Io(e)) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(Exit::Io(e)) => {
            eprintln!("error: writing stdout: {e}");
            ExitCode::FAILURE
        }
    }
}
