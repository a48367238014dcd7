//! Integration tests of the `clasp-cli` binary: end-to-end runs over the
//! bundled `.clasp` loop files.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_clasp-cli"))
}

fn loops_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("loops")
}

#[test]
fn analyze_reports_recurrence() {
    let out = cli()
        .arg("analyze")
        .arg(loops_dir().join("tridiag.clasp"))
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("RecMII = 4"), "{text}");
    assert!(text.contains("recurrence"), "{text}");
}

#[test]
fn compile_prints_placement_and_kernel() {
    let out = cli()
        .arg("compile")
        .arg(loops_dir().join("dot_product.clasp"))
        .args(["--machine", "4c-gp", "--kernel"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("II:"), "{text}");
    assert!(text.contains("placement:"), "{text}");
    assert!(text.contains("kernel (II ="), "{text}");
}

#[test]
fn simulate_passes_on_grid() {
    let out = cli()
        .arg("simulate")
        .arg(loops_dir().join("stencil.clasp"))
        .args(["--machine", "grid", "--iterations", "25"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("matches sequential execution"), "{text}");
}

#[test]
fn machine_file_is_honored() {
    let out = cli()
        .arg("compile")
        .arg(loops_dir().join("stencil.clasp"))
        .args([
            "--machine-file",
            loops_dir().join("asymmetric.machine").to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("asymmetric"), "{text}");
}

#[test]
fn explain_prints_cascade() {
    let out = cli()
        .arg("compile")
        .arg(loops_dir().join("tridiag.clasp"))
        .args(["--machine", "2c-gp", "--explain"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("decision log"), "{text}");
    assert!(text.contains("assigned to"), "{text}");
}

#[test]
fn trace_json_flag_writes_a_chrome_trace() {
    let path = std::env::temp_dir().join("clasp-cli-trace-test.json");
    let _ = std::fs::remove_file(&path);
    let out = cli()
        .arg("compile")
        .arg(loops_dir().join("tridiag.clasp"))
        .args(["--machine", "2c-gp", "--trace-json", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let trace = std::fs::read_to_string(&path).expect("trace file written");
    assert!(trace.contains("\"traceEvents\""), "{trace}");
    assert!(trace.contains("\"ph\": \"X\""), "{trace}");
    assert!(trace.contains("\"counters\""), "{trace}");
    assert!(trace.contains("\"pipeline.attempts\""), "{trace}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn bad_input_fails_cleanly() {
    let out = cli()
        .arg("analyze")
        .arg(loops_dir().join("does-not-exist.clasp"))
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));

    let out = cli()
        .arg("compile")
        .arg(loops_dir().join("dot_product.clasp"))
        .args(["--machine", "not-a-machine"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
}

#[test]
fn negative_iteration_count_is_a_usage_error() {
    let fir4 = loops_dir().join("fir4.clasp");
    let fir4 = fir4.to_str().unwrap();
    // A count past the cap would size the emitted program at
    // terabytes: it is refused where it enters, like a negative one.
    let huge = "100000000000";
    for args in [
        &["compile", fir4, "--iterations", "-1"][..],
        &["simulate", fir4, "--iterations", "-1"],
        &["fuzz", "--cases", "1", "--iterations", "-1"],
        &["compile", fir4, "--machine", "2c-gp", "--iterations", huge],
        &["simulate", fir4, "--iterations", huge],
        &["fuzz", "--cases", "1", "--iterations", huge],
    ] {
        let out = cli().args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--iterations"), "{args:?}: {stderr}");
    }
}

#[test]
fn oversized_descriptions_are_refused_before_they_are_sized() {
    // Accepted, each of these would ask the allocator for gigabytes to
    // terabytes, and a failed allocation aborts the process; each must be
    // a typed error on its line or flag: exit 1 for bad input, exit 2 for
    // a bad flag.
    let dir = std::env::temp_dir().join(format!("clasp-cli-oversized-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path.to_str().unwrap().to_string()
    };
    let fir4 = loops_dir().join("fir4.clasp");
    let fir4 = fir4.to_str().unwrap();
    let machine = file(
        "huge.machine",
        "cluster 2gp\ncluster 2gp\nbus 4294967295 ports 4294967295 4294967295\n",
    );
    let latency = file("latency.clasp", "op a alu\ndep a -> a @1 !4000000000\n");
    let distance = file(
        "distance.clasp",
        "op x load\nop y store\ndep x -> y @100000000\n",
    );
    let cases: [(&[&str], i32, &str); 5] = [
        (
            &["compile", fir4, "--machine-file", &machine],
            1,
            "line 3: bus count 4294967295 exceeds the limit of 64",
        ),
        (
            &[
                "compile",
                fir4,
                "--machine",
                "4c-gp",
                "--ports",
                "4294967295",
            ],
            2,
            "--ports needs a number up to 16",
        ),
        (
            &[
                "compile",
                fir4,
                "--machine",
                "4c-gp",
                "--buses",
                "4294967295",
            ],
            2,
            "--buses needs a number up to 64",
        ),
        (
            &["compile", &latency, "--machine", "2c-gp"],
            1,
            "line 2: latency 4000000000 exceeds the limit of 64",
        ),
        (
            &["compile", &distance, "--machine", "2c-gp"],
            1,
            "line 3: distance 100000000 exceeds the limit of 64",
        ),
    ];
    for (args, code, message) in cases {
        let out = cli().args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exact_size_refusal_names_no_ii() {
    // A 22-node ALU chain is over the exact backend's 20-node cap, which
    // refuses it before attempting any II.
    let mut text = String::from("loop chain22\n\n");
    for i in 0..22 {
        text.push_str(&format!("op n{i} alu\n"));
    }
    for i in 1..22 {
        text.push_str(&format!("dep n{} -> n{i}\n", i - 1));
    }
    let path = std::env::temp_dir().join(format!("clasp-cli-chain22-{}.clasp", std::process::id()));
    std::fs::write(&path, text).unwrap();
    let out = cli()
        .arg("compile")
        .arg(&path)
        .args(["--machine", "2c-gp", "--backend", "exact"])
        .output()
        .expect("binary runs");
    let _ = std::fs::remove_file(&path);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        stderr.trim_end(),
        "error: exact backend refused the instance: 22 nodes exceed the size cap"
    );
}

#[test]
fn machines_lists_presets() {
    let out = cli().arg("machines").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for preset in ["2c-gp", "4c-fs", "grid", "unified"] {
        assert!(text.contains(preset), "{text}");
    }
}

#[test]
fn swing_scheduler_flag_works() {
    let out = cli()
        .arg("compile")
        .arg(loops_dir().join("dot_product.clasp"))
        .args(["--machine", "2c-gp", "--scheduler", "swing"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("swing scheduler"), "{text}");
}

#[test]
fn batch_sweeps_all_loops_and_is_thread_count_deterministic() {
    let run = |threads: &str| {
        let out = cli()
            .arg("batch")
            .args(["--dir", loops_dir().to_str().unwrap(), "--threads", threads])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let serial = run("1");
    assert!(serial.contains("dot_product x 2c-gp"), "{serial}");
    assert!(serial.contains("x unified"), "{serial}");
    assert!(serial.contains("0 failed"), "{serial}");
    assert!(serial.contains("cache"), "{serial}");
    // Unified baselines shared through the content cache produce hits.
    assert!(!serial.contains(" 0 hits"), "{serial}");
    // Stdout is bit-identical whatever the worker count.
    let parallel = run("4");
    assert_eq!(
        serial, parallel,
        "batch output must not depend on --threads"
    );
}

#[test]
fn fuzz_threads_flag_is_deterministic() {
    let run = |threads: &str| {
        let out = cli()
            .args(["fuzz", "--seed", "3", "--cases", "20", "--threads", threads])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    assert_eq!(
        run("1"),
        run("4"),
        "fuzz report must not depend on --threads"
    );
}

#[test]
fn fuzz_out_dir_drops_stale_reproducers() {
    let dir = std::env::temp_dir().join("clasp-cli-stale-repro-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // A stale reproducer pair from a previous (red) run.
    std::fs::write(dir.join("case-0007.clasp"), "# stale\n").unwrap();
    std::fs::write(dir.join("case-0007.machine"), "stale").unwrap();
    std::fs::write(dir.join("NOTES.md"), "keep me").unwrap();

    // A clean shrink run must remove the stale pair but keep the rest.
    let out = cli()
        .args(["fuzz", "--seed", "0", "--cases", "3", "--shrink"])
        .args(["--out", dir.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!dir.join("case-0007.clasp").exists(), "stale repro kept");
    assert!(!dir.join("case-0007.machine").exists(), "stale repro kept");
    assert!(dir.join("NOTES.md").exists(), "unrelated file removed");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn load_gates_against_the_baseline_before_overwriting_it() {
    // `--json P --gate P` must gate this run against P as it was, not
    // against the report the run writes there. The baseline p99 is
    // 10^12 ns, so the run passes a 0.001 factor against it; against its
    // own ms-scale cold p99 (over the 5 ms floor) it fails.
    let dir = std::env::temp_dir().join(format!("clasp-cli-load-gate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let report = dir.join("BENCH_load.json");
    std::fs::write(
        &report,
        "  \"inproc/c1/cold\": {\"p99_ns\": 1000000000000},\n",
    )
    .unwrap();
    let run = |gate: &std::path::Path| {
        cli()
            .args(["load", "--transport", "inproc", "--clients", "1"])
            .args(["--mix", "cold", "--requests", "8", "--gate-factor", "0.001"])
            .arg("--json")
            .arg(&report)
            .arg("--gate")
            .arg(gate)
            .output()
            .expect("binary runs")
    };

    let out = run(&report);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    assert!(text.contains("gate inproc/c1/cold"), "{text}");
    let written = std::fs::read_to_string(&report).unwrap();
    assert!(written.contains("\"bench\": \"clasp-load\""), "{written}");

    // A missing baseline fails before any request is sent.
    let out = run(&dir.join("missing.json"));
    assert!(!out.status.success());
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing.json"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `clasp-cli` run whose stdout is a pipe with no reader from the
/// start, so its first write fails with a broken pipe.
fn run_with_stdout_closed(args: &[&str]) -> std::process::Output {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    cli()
        .args(args)
        .stdout(writer)
        .output()
        .expect("binary runs")
}

#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    let fir4 = loops_dir().join("fir4.clasp");
    let dir = loops_dir();
    for args in [
        &[
            "compile",
            fir4.to_str().unwrap(),
            "--machine",
            "4c-gp",
            "--kernel",
        ][..],
        &["batch", "--dir", dir.to_str().unwrap()],
        &["analyze", fir4.to_str().unwrap()],
    ] {
        let out = run_with_stdout_closed(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn flag_combinations_are_refused_before_any_work() {
    let dir = std::env::temp_dir().join(format!("clasp-cli-combos-{}", std::process::id()));
    let csv = dir.join("strata.csv");
    let hard = dir.join("hard");
    let cases: [(&[&str], &str); 3] = [
        (
            &["fuzz", "--cases", "5", "--hard-out", hard.to_str().unwrap()],
            "--hard-out requires --exact",
        ),
        (
            &["batch", "--strata-csv", csv.to_str().unwrap()],
            "--strata-csv needs --stratum",
        ),
        (&["batch", "--seed", "0xzz"], "--seed needs a number"),
    ];
    for (args, message) in cases {
        let out = cli().args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
    assert!(!dir.exists(), "a refused run wrote files");
}

#[test]
fn every_seed_reads_hex() {
    let out = cli()
        .args(["fuzz", "--seed", "0x10", "--cases", "2"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("2 cases checked (seed 16"), "{text}");
}

#[test]
fn a_failed_run_exits_one_not_two() {
    let missing = std::env::temp_dir().join(format!("clasp-cli-no-dir-{}", std::process::id()));
    let out = cli()
        .args(["batch", "--dir", missing.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("error: "));
}

#[test]
fn strata_csv_sums_the_batch_and_is_thread_and_cache_invariant() {
    let dir = std::env::temp_dir().join(format!("clasp-cli-strata-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cache = dir.join("cache");
    let run = |tag: &str, extra: &[&str]| {
        let csv = dir.join(format!("{tag}.csv"));
        let out = cli()
            .args(["batch", "--stratum", "all", "--stratum-loops", "3"])
            .args(["--preset", "mesh3x3", "--preset", "4c-gp", "--strata-csv"])
            .arg(&csv)
            .args(extra)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{tag}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let rows = String::from_utf8_lossy(&out.stdout).into_owned();
        (std::fs::read_to_string(&csv).expect("csv written"), rows)
    };
    let (serial, rows) = run("t1", &["--threads", "1"]);
    assert_eq!(run("t4", &["--threads", "4"]).0, serial);
    let cache = cache.to_str().unwrap();
    assert_eq!(run("cold", &["--cache-dir", cache]).0, serial);
    assert_eq!(run("warm", &["--cache-dir", cache]).0, serial);

    // One row per (preset, stratum), preset-major, each summing the
    // (II, unified II) pairs the batch printed for that preset's loops
    // of that stratum: the loops come stratum by stratum, `loops` each.
    let lines: Vec<&str> = serial.lines().collect();
    assert_eq!(
        lines[0],
        "# clasp strata sweep: seed 0x1998c1a5, 3 loops per stratum"
    );
    assert_eq!(lines.len(), 2 + 2 * 5, "{serial}");
    let field = |row: &str, after: &str| -> u64 {
        let rest = row.split(after).nth(1).unwrap().trim_start();
        let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap();
        rest[..end].parse().unwrap()
    };
    for preset in ["mesh3x3", "4c-gp"] {
        let mut pairs = rows
            .lines()
            .filter(|r| r.contains(&format!(" x {preset} ")))
            .map(|r| (field(r, "II "), field(r, "(unified ")));
        for line in lines[2..].iter().filter(|l| l.starts_with(preset)) {
            let f: Vec<u64> = line
                .split(',')
                .skip(2)
                .take(4)
                .map(|v| v.parse().unwrap())
                .collect();
            let (mut clustered, mut unified) = (0, 0);
            for (c, u) in pairs.by_ref().take(f[0] as usize) {
                clustered += c;
                unified += u;
            }
            assert_eq!(f, [f[0], f[0], clustered, unified], "{line}");
        }
        assert_eq!(pairs.next(), None, "{preset}: rows past the table");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The joint-bound pair: every dimension inside `clasp_text::limits`,
/// their product not. A 1,024-op cycle of latency-64 dependences over
/// one iteration (RecMII 65,536) on 256 clusters of 64 GP units (24,640
/// reservation-table columns) asks for 1,614,807,040 cells at its first
/// II.
fn joint_bound_pair(dir: &std::path::Path) -> (String, String) {
    let mut text = String::from("loop cycle1024\n\n");
    for i in 0..1024 {
        text.push_str(&format!("op n{i} alu\n"));
    }
    for i in 0..1023 {
        text.push_str(&format!("dep n{i} -> n{} !64\n", i + 1));
    }
    text.push_str("dep n1023 -> n0 @1 !64\n");
    let machine = "cluster 64gp\n".repeat(256) + "bus 64 ports 16 16\n";
    let write = |name: &str, body: &str| {
        let path = dir.join(name);
        std::fs::write(&path, body).unwrap();
        path.to_str().unwrap().to_string()
    };
    (
        write("cycle1024.clasp", &text),
        write("wide.machine", &machine),
    )
}

#[test]
fn a_table_past_the_cell_bound_is_a_typed_error() {
    // Accepted, this pair asks for a 6.5 GB table and aborts under a
    // 4 GB address-space limit (exit 134); refused, it is one line.
    let dir = std::env::temp_dir().join(format!("clasp-cli-joint-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (cycle, machine) = joint_bound_pair(&dir);
    let out = Command::new("sh")
        .arg("-c")
        .arg("ulimit -v 4000000; exec \"$0\" compile \"$1\" --machine-file \"$2\"")
        .args([env!("CARGO_BIN_EXE_clasp-cli"), &cycle, &machine])
        .output()
        .expect("binary runs");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        String::from_utf8_lossy(&out.stderr).trim_end(),
        "error: reservation table refused at II = 65536: \
         1614807040 cells exceed the limit of 67108864"
    );
    assert_eq!(out.status.code(), Some(1));
}
