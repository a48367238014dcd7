//! The `experiments` binary's flags: a missing or unreadable value and
//! an unknown experiment id are usage errors (exit 2), refused before
//! the corpus is generated.

use std::process::Command;

#[test]
fn bad_flags_are_usage_errors_before_any_work() {
    for (args, message) in [
        (&["table2", "--loops"][..], "--loops takes a number"),
        (&["table2", "--loops", "x"], "--loops takes a number"),
        (&["table2", "--seed", "0x10"], "--seed takes a number"),
        (&["table2", "--threads"], "--threads takes a number"),
        (&["table2", "nosuch"], "unknown experiment id: nosuch"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.trim_end(), format!("error: {message}"), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} generated the corpus");
    }
}

#[test]
fn a_static_table_runs_on_a_tiny_corpus() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["table2", "--loops", "3", "--seed", "7", "--threads", "1"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("corpus: 3 loops generated in "), "{text}");
    assert!(
        text.contains("=== Table 2: operation latencies ==="),
        "{text}"
    );
}
