//! Observability-layer integration tests: span/report agreement,
//! thread-count-independent counters, Chrome trace validity, and the
//! escalation-loop regression fixes that shipped with the obs layer
//! (unbounded-MII fast fail, truthful `IiExhausted::max_ii`).

use clasp::obs::{Counter, Obs, SpanRecord};
use clasp::{
    compile_full_observed, compile_loop, compile_loop_post, CompileRequest, CompileService,
    PipelineConfig, PipelineError,
};
use clasp_ddg::{Ddg, OpKind};
use clasp_machine::{presets, ClusterSpec, Interconnect, MachineSpec};
use clasp_sched::{SchedFailure, SchedulerConfig};

fn arg<'a>(span: &'a SpanRecord, key: &str) -> &'a str {
    span.args
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v.as_str())
        .unwrap_or_else(|| panic!("span {} has no arg {key}", span.name))
}

fn attempt_spans(obs: &Obs) -> Vec<SpanRecord> {
    obs.spans()
        .into_iter()
        .filter(|s| s.name == "pipeline.attempt")
        .collect()
}

/// A loop whose copies contend for one bus, so 2c-gp-1b needs escalation
/// and the trace records more than one attempt.
fn bus_hungry_loop() -> Ddg {
    let mut g = Ddg::new("bus_hungry");
    let loads: Vec<_> = (0..6).map(|_| g.add(OpKind::Load)).collect();
    let mut acc = g.add(OpKind::IntAlu);
    for chunk in loads.chunks(2) {
        let add = g.add(OpKind::IntAlu);
        for &l in chunk {
            g.add_dep(l, add);
        }
        let next = g.add(OpKind::IntAlu);
        g.add_dep(acc, next);
        g.add_dep(add, next);
        acc = next;
    }
    g.add_dep_carried(acc, acc, 1);
    g
}

/// A machine that cannot execute floating point at all: any loop with an
/// FP op has unbounded MII on it (and on its unified equivalent).
fn int_only_machine() -> MachineSpec {
    MachineSpec::new(
        "int-only",
        vec![ClusterSpec::specialized(1, 2, 0)],
        Interconnect::None,
    )
}

fn fp_loop() -> Ddg {
    let mut g = Ddg::new("fp");
    let a = g.add(OpKind::Load);
    let b = g.add(OpKind::FpAdd);
    g.add_dep(a, b);
    g
}

#[test]
fn attempt_spans_agree_with_report_trajectory() {
    let g = bus_hungry_loop();
    let machine = presets::two_cluster_gp(1, 1);
    let obs = Obs::enabled();
    let artifact = compile_full_observed(&g, &machine, &CompileRequest::default(), &obs)
        .expect("bus_hungry compiles");
    let report = &artifact.report;
    let spans = attempt_spans(&obs);
    assert_eq!(
        spans.len(),
        report.trajectory.len(),
        "one pipeline.attempt span per trajectory step"
    );
    for (span, step) in spans.iter().zip(&report.trajectory) {
        assert_eq!(arg(span, "requested_ii"), step.requested_ii.to_string());
        assert_eq!(arg(span, "assigned_ii"), step.assigned_ii.to_string());
        assert_eq!(arg(span, "copies"), step.copies.to_string());
        match &step.failure {
            None => assert_eq!(arg(span, "result"), "ok"),
            Some(f) => assert_eq!(arg(span, "result"), f.to_string()),
        }
    }
    // The final span's achieved II is the report's II.
    assert_eq!(
        arg(spans.last().unwrap(), "assigned_ii"),
        report.ii.to_string()
    );
    assert_eq!(
        obs.counter(Counter::PipelineAttempts),
        report.trajectory.len() as u64
    );
}

#[test]
fn counters_are_thread_count_independent() {
    let corpus: Vec<Ddg> = clasp_loopgen::generate_corpus(clasp_loopgen::CorpusConfig {
        loops: 12,
        scc_loops: 3,
        seed: 42,
    });
    let machine = presets::two_cluster_gp(2, 1);
    let req = CompileRequest::default();
    let run = |threads: usize| {
        let obs = Obs::enabled();
        let service = CompileService::in_memory();
        clasp_exec::sweep_observed(
            threads,
            &corpus,
            |_, g: &Ddg| g.name().to_string(),
            |_, g| service.compile_artifact(g, &machine, &req, &obs).is_ok(),
            &obs,
        )
        .expect("sweep must not panic");
        obs.counters()
    };
    let serial = run(1);
    for threads in [2, 4, 8] {
        assert_eq!(
            serial,
            run(threads),
            "counters diverged at {threads} threads"
        );
    }
    let items = serial
        .iter()
        .find(|(n, _)| *n == "exec.items")
        .map(|&(_, v)| v);
    assert_eq!(items, Some(corpus.len() as u64));
}

#[test]
fn chrome_trace_is_valid_json_with_full_counter_catalogue() {
    let g = bus_hungry_loop();
    let machine = presets::two_cluster_gp(1, 1);
    let obs = Obs::enabled();
    let _ = compile_full_observed(&g, &machine, &CompileRequest::default(), &obs);
    let json = obs.chrome_trace();
    let value = json::parse(&json).unwrap_or_else(|e| panic!("invalid trace JSON: {e}\n{json}"));
    let json::Value::Object(top) = value else {
        panic!("trace top level must be an object")
    };
    let Some(json::Value::Array(events)) =
        top.iter().find(|(k, _)| k == "traceEvents").map(|(_, v)| v)
    else {
        panic!("traceEvents must be an array")
    };
    assert!(!events.is_empty(), "an instrumented compile records spans");
    for e in events {
        let json::Value::Object(fields) = e else {
            panic!("every trace event is an object")
        };
        let get = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| v);
        assert!(matches!(get("name"), Some(json::Value::String(_))));
        assert!(matches!(get("ts"), Some(json::Value::Number(_))));
        match get("ph") {
            Some(json::Value::String(ph)) if ph == "X" => {
                assert!(matches!(get("dur"), Some(json::Value::Number(_))));
            }
            Some(json::Value::String(ph)) if ph == "i" => {}
            other => panic!("unexpected ph: {other:?}"),
        }
    }
    let Some(json::Value::Object(counters)) =
        top.iter().find(|(k, _)| k == "counters").map(|(_, v)| v)
    else {
        panic!("counters must be an object")
    };
    assert_eq!(counters.len(), Counter::ALL.len());
    for c in Counter::ALL {
        assert!(
            counters.iter().any(|(k, _)| k == c.name()),
            "counter {} missing from trace",
            c.name()
        );
    }
}

#[test]
fn disabled_sink_records_nothing_through_the_full_driver() {
    let g = bus_hungry_loop();
    let machine = presets::two_cluster_gp(1, 1);
    let obs = Obs::disabled();
    let artifact =
        compile_full_observed(&g, &machine, &CompileRequest::default(), &obs).expect("compiles");
    assert!(artifact.report.timings.total() > std::time::Duration::ZERO);
    assert!(obs.spans().is_empty());
    assert!(obs.events().is_empty());
    assert!(obs.counters().iter().all(|&(_, v)| v == 0));
}

// Regression (unbounded MII): both escalation entry points used to
// compute `mii(g).max(1)` and start escalating from `u32::MAX.max(1)`;
// they must fail fast with the typed reason instead, exactly like
// `unified_ii` always did.
#[test]
fn unbounded_mii_fails_fast_in_both_escalation_loops() {
    let g = fp_loop();
    let machine = int_only_machine();
    let expected = PipelineError::UnifiedBaselineFailed(SchedFailure::MiiUnbounded);
    assert_eq!(
        compile_loop(&g, &machine, PipelineConfig::default()).unwrap_err(),
        expected
    );
    assert_eq!(
        compile_loop_post(&g, &machine, PipelineConfig::default()).unwrap_err(),
        expected
    );
}

// Regression (exhaustion cap): `IiExhausted::max_ii` used to report the
// range cap even though escalation advances by `assignment.ii + 1` and
// records per-attempt IIs. The reported value must match the largest II
// an attempt actually ran at — pinned here against the trace record.
#[test]
fn ii_exhausted_reports_the_largest_ii_actually_attempted() {
    let g = bus_hungry_loop();
    let machine = presets::two_cluster_gp(1, 1);
    // A zero placement budget fails every scheduling attempt, so the
    // escalation loop runs its full range and exhausts.
    let config = PipelineConfig {
        sched: SchedulerConfig { budget_factor: 0 },
        ..PipelineConfig::default()
    };
    let req = CompileRequest {
        pipeline: config,
        ..CompileRequest::default()
    };
    let obs = Obs::enabled();
    let err = compile_full_observed(&g, &machine, &req, &obs).unwrap_err();
    let PipelineError::IiExhausted { max_ii, last } = err else {
        panic!("expected IiExhausted, got {err}")
    };
    assert!(last.is_some(), "attempts ran, so a last failure exists");
    let attempted: Vec<u32> = attempt_spans(&obs)
        .iter()
        .map(|s| arg(s, "assigned_ii").parse().unwrap())
        .collect();
    assert!(!attempted.is_empty());
    assert_eq!(
        max_ii,
        *attempted.iter().max().unwrap(),
        "reported max_ii must be the largest II an attempt ran at; attempts: {attempted:?}"
    );
}

/// A minimal recursive-descent JSON parser — enough to *validate* the
/// trace output without pulling a serde dependency into the workspace.
mod json {
    // The parser is complete even where the tests' assertions never
    // inspect a payload (booleans, number values).
    #[allow(dead_code)]
    #[derive(Debug)]
    pub enum Value {
        Null,
        Bool(bool),
        Number(f64),
        String(String),
        Array(Vec<Value>),
        Object(Vec<(String, Value)>),
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut at = 0;
        let value = parse_value(bytes, &mut at)?;
        skip_ws(bytes, &mut at);
        if at != bytes.len() {
            return Err(format!("trailing data at byte {at}"));
        }
        Ok(value)
    }

    fn skip_ws(b: &[u8], at: &mut usize) {
        while *at < b.len() && matches!(b[*at], b' ' | b'\t' | b'\n' | b'\r') {
            *at += 1;
        }
    }

    fn expect(b: &[u8], at: &mut usize, c: u8) -> Result<(), String> {
        skip_ws(b, at);
        if b.get(*at) == Some(&c) {
            *at += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {at}", c as char))
        }
    }

    fn parse_value(b: &[u8], at: &mut usize) -> Result<Value, String> {
        skip_ws(b, at);
        match b.get(*at) {
            Some(b'{') => parse_object(b, at),
            Some(b'[') => parse_array(b, at),
            Some(b'"') => Ok(Value::String(parse_string(b, at)?)),
            Some(b't') => parse_lit(b, at, "true", Value::Bool(true)),
            Some(b'f') => parse_lit(b, at, "false", Value::Bool(false)),
            Some(b'n') => parse_lit(b, at, "null", Value::Null),
            Some(_) => parse_number(b, at),
            None => Err("unexpected end of input".into()),
        }
    }

    fn parse_lit(b: &[u8], at: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
        if b[*at..].starts_with(lit.as_bytes()) {
            *at += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {at}"))
        }
    }

    fn parse_number(b: &[u8], at: &mut usize) -> Result<Value, String> {
        let start = *at;
        while *at < b.len() && matches!(b[*at], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *at += 1;
        }
        std::str::from_utf8(&b[start..*at])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Value::Number)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn parse_string(b: &[u8], at: &mut usize) -> Result<String, String> {
        expect(b, at, b'"')?;
        let mut out = String::new();
        loop {
            match b.get(*at) {
                Some(b'"') => {
                    *at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *at += 1;
                    match b.get(*at) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = b
                                .get(*at + 1..*at + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {at}"))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            *at += 4;
                        }
                        _ => return Err(format!("bad escape at byte {at}")),
                    }
                    *at += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 passes through unvalidated; the
                    // input came from a Rust `String`, so it is valid.
                    let next = (*at + 1..=b.len())
                        .find(|&i| std::str::from_utf8(&b[*at..i]).is_ok())
                        .unwrap();
                    out.push_str(std::str::from_utf8(&b[*at..next]).unwrap());
                    *at = next;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn parse_array(b: &[u8], at: &mut usize) -> Result<Value, String> {
        expect(b, at, b'[')?;
        let mut out = Vec::new();
        skip_ws(b, at);
        if b.get(*at) == Some(&b']') {
            *at += 1;
            return Ok(Value::Array(out));
        }
        loop {
            out.push(parse_value(b, at)?);
            skip_ws(b, at);
            match b.get(*at) {
                Some(b',') => *at += 1,
                Some(b']') => {
                    *at += 1;
                    return Ok(Value::Array(out));
                }
                _ => return Err(format!("expected `,` or `]` at byte {at}")),
            }
        }
    }

    fn parse_object(b: &[u8], at: &mut usize) -> Result<Value, String> {
        expect(b, at, b'{')?;
        let mut out = Vec::new();
        skip_ws(b, at);
        if b.get(*at) == Some(&b'}') {
            *at += 1;
            return Ok(Value::Object(out));
        }
        loop {
            skip_ws(b, at);
            let key = parse_string(b, at)?;
            expect(b, at, b':')?;
            out.push((key, parse_value(b, at)?));
            skip_ws(b, at);
            match b.get(*at) {
                Some(b',') => *at += 1,
                Some(b'}') => {
                    *at += 1;
                    return Ok(Value::Object(out));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {at}")),
            }
        }
    }
}
