//! The load runner: replay one schedule at a given client concurrency,
//! closed- or open-loop, recording per-request latency into fixed-bucket
//! histograms.
//!
//! Transports are injected: a *client* is any `FnMut(&str) ->
//! Result<ReplyOutcome, String>` (wire body in, classified reply out),
//! and the runner asks the `make_client` factory for one per worker
//! thread. The root crate binds factories for the in-process
//! `CompileService` and for TCP connections to a `clasp-serve` daemon.
//!
//! **Closed loop**: each worker sends its next request as soon as the
//! previous reply lands — latency is pure service time, throughput is
//! whatever the system sustains. **Open loop** (`rate > 0`): request
//! `i` of the schedule is *due* at `start + i/rate`, workers sleep
//! until a request is due, and latency is measured **from the due
//! time** — so queueing delay under overload is part of the number, as
//! it is for a real user.

use crate::histogram::Histogram;
use crate::mix::LoadRequest;
use clasp_obs::Obs;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How a reply was classified by the injected client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyOutcome {
    /// Healthy reply carrying an artifact payload.
    Ok,
    /// Healthy reply carrying a typed pipeline failure (e.g. the exact
    /// backend's `Budget`) — a valid answer, not a load error.
    PipelineFailure,
}

/// Runner knobs for one cell.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Concurrent client workers.
    pub clients: usize,
    /// Open-loop arrival rate in requests/second across all clients;
    /// `0.0` selects the closed loop.
    pub rate: f64,
}

/// The measured result of one cell.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// Requests attempted (schedule length).
    pub requests: u64,
    /// Transport or protocol failures (send error, unparseable reply,
    /// `bad-request`). A healthy run has zero.
    pub errors: u64,
    /// Replies carrying a typed pipeline failure.
    pub pipeline_failures: u64,
    /// Wall-clock time of the whole cell, ns.
    pub wall_ns: u64,
    /// Latency over every successful request.
    pub overall: Histogram,
    /// Latency split by request class, indexed by
    /// [`ReqClass::index`](crate::ReqClass::index).
    pub by_class: [Histogram; 4],
}

impl CellReport {
    /// Sustained throughput in requests/second.
    pub fn throughput_rps(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        (self.requests - self.errors) as f64 / (self.wall_ns as f64 / 1e9)
    }
}

struct WorkerResult {
    overall: Histogram,
    by_class: [Histogram; 4],
    errors: u64,
    pipeline_failures: u64,
}

/// Replay `schedule` on `config.clients` workers.
///
/// `make_client` runs once per worker, inside that worker's thread; a
/// factory error fails the whole cell (a load run against a dead
/// daemon is a setup problem, not a tail-latency fact).
///
/// Every request records one `load.request` span into `obs` (class and
/// schedule index attached), so a `--trace-json` of a load run is
/// Perfetto-loadable like every other trace this workspace writes.
///
/// # Errors
///
/// The first worker's client-factory error, verbatim.
pub fn run_cell<C>(
    schedule: &[LoadRequest],
    config: &RunConfig,
    obs: &Obs,
    make_client: impl Fn(usize) -> Result<C, String> + Sync,
) -> Result<CellReport, String>
where
    C: FnMut(&str) -> Result<ReplyOutcome, String>,
{
    let clients = config.clients.max(1);
    let cursor = AtomicUsize::new(0);
    let ns_per_request = if config.rate > 0.0 {
        Some((1e9 / config.rate) as u64)
    } else {
        None
    };

    let cell_start = Instant::now();
    let results: Vec<Result<WorkerResult, String>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(clients);
        for worker in 0..clients {
            let cursor = &cursor;
            let make_client = &make_client;
            handles.push(scope.spawn(move || {
                let mut client = make_client(worker)?;
                let mut out = WorkerResult {
                    overall: Histogram::new(),
                    by_class: std::array::from_fn(|_| Histogram::new()),
                    errors: 0,
                    pipeline_failures: 0,
                };
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = schedule.get(i) else { break };
                    // Open loop: wait for the request's due time; the
                    // latency clock starts there, so time spent queued
                    // behind a slow system is charged to the request.
                    let due = ns_per_request.map(|step| {
                        let due = cell_start + Duration::from_nanos(step * i as u64);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        due
                    });
                    let span = obs.begin("load.request");
                    let sent = Instant::now();
                    let outcome = client(&req.wire);
                    let done = Instant::now();
                    obs.end_with(span, || {
                        vec![
                            ("class", req.class.name().to_string()),
                            ("index", i.to_string()),
                        ]
                    });
                    match outcome {
                        Ok(kind) => {
                            let from = match due {
                                Some(due) => done.saturating_duration_since(due),
                                None => done.saturating_duration_since(sent),
                            };
                            let ns = from.as_nanos().min(u128::from(u64::MAX)) as u64;
                            out.overall.record(ns);
                            out.by_class[req.class.index()].record(ns);
                            if kind == ReplyOutcome::PipelineFailure {
                                out.pipeline_failures += 1;
                            }
                        }
                        Err(_) => out.errors += 1,
                    }
                }
                Ok(out)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("worker panicked".into())))
            .collect()
    });
    let wall_ns = cell_start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;

    let mut report = CellReport {
        requests: schedule.len() as u64,
        errors: 0,
        pipeline_failures: 0,
        wall_ns,
        overall: Histogram::new(),
        by_class: std::array::from_fn(|_| Histogram::new()),
    };
    for r in results {
        let r = r?;
        report.overall.merge(&r.overall);
        for (into, from) in report.by_class.iter_mut().zip(&r.by_class) {
            into.merge(from);
        }
        report.errors += r.errors;
        report.pipeline_failures += r.pipeline_failures;
    }
    Ok(report)
}

/// Issue every wire in `wires` once through a fresh client — the
/// untimed warm-up pass hot/mixed cells run so hot requests measure the
/// cache-hit floor, not first-compile cost.
///
/// # Errors
///
/// The client-factory error or the first send error, verbatim.
pub fn prewarm<C>(
    wires: &[String],
    make_client: impl Fn(usize) -> Result<C, String>,
) -> Result<(), String>
where
    C: FnMut(&str) -> Result<ReplyOutcome, String>,
{
    let mut client = make_client(0)?;
    for wire in wires {
        client(wire).map_err(|e| format!("prewarm: {e}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::ReqClass;

    fn schedule(n: usize) -> Vec<LoadRequest> {
        (0..n)
            .map(|i| LoadRequest {
                class: if i % 2 == 0 {
                    ReqClass::Hot
                } else {
                    ReqClass::Cold
                },
                wire: format!("req-{i}"),
            })
            .collect()
    }

    #[test]
    fn closed_loop_covers_every_request_once() {
        let sched = schedule(100);
        let counted = AtomicUsize::new(0);
        let report = run_cell(
            &sched,
            &RunConfig {
                clients: 4,
                rate: 0.0,
            },
            &Obs::disabled(),
            |_| {
                let counted = &counted;
                Ok(move |_wire: &str| {
                    counted.fetch_add(1, Ordering::Relaxed);
                    Ok(ReplyOutcome::Ok)
                })
            },
        )
        .unwrap();
        assert_eq!(counted.load(Ordering::Relaxed), 100);
        assert_eq!(report.requests, 100);
        assert_eq!(report.errors, 0);
        assert_eq!(report.overall.total(), 100);
        assert_eq!(report.by_class[ReqClass::Hot.index()].total(), 50);
        assert_eq!(report.by_class[ReqClass::Cold.index()].total(), 50);
        assert!(report.throughput_rps() > 0.0);
    }

    #[test]
    fn errors_and_pipeline_failures_are_counted_apart() {
        let sched = schedule(90);
        let report = run_cell(
            &sched,
            &RunConfig {
                clients: 3,
                rate: 0.0,
            },
            &Obs::disabled(),
            |_| {
                Ok(|wire: &str| {
                    let i: usize = wire["req-".len()..].parse().unwrap();
                    match i % 3 {
                        0 => Ok(ReplyOutcome::Ok),
                        1 => Ok(ReplyOutcome::PipelineFailure),
                        _ => Err("boom".to_string()),
                    }
                })
            },
        )
        .unwrap();
        assert_eq!(report.errors, 30);
        assert_eq!(report.pipeline_failures, 30);
        assert_eq!(report.overall.total(), 60);
    }

    /// One single-client open-loop cell of `schedule(20)` at `rate`
    /// through a server that sleeps 2ms per request, with the instants
    /// the test observed around it: just before the cell, each call's
    /// entry and exit, and just after the cell.
    fn timed_cell(rate: f64) -> (CellReport, Instant, Vec<(Instant, Instant)>, Instant) {
        let sched = schedule(20);
        let calls = std::sync::Mutex::new(vec![None; sched.len()]);
        let before = Instant::now();
        let report = run_cell(
            &sched,
            &RunConfig { clients: 1, rate },
            &Obs::disabled(),
            |_| {
                let calls = &calls;
                Ok(move |wire: &str| {
                    let i: usize = wire["req-".len()..].parse().unwrap();
                    let entry = Instant::now();
                    std::thread::sleep(Duration::from_millis(2));
                    calls.lock().unwrap()[i] = Some((entry, Instant::now()));
                    Ok(ReplyOutcome::Ok)
                })
            },
        )
        .unwrap();
        let after = Instant::now();
        let calls = calls.into_inner().unwrap();
        (
            report,
            before,
            calls.into_iter().map(Option::unwrap).collect(),
            after,
        )
    }

    fn histogram(ns: impl IntoIterator<Item = u128>) -> Histogram {
        let mut h = Histogram::new();
        for v in ns {
            h.record(u64::try_from(v).unwrap());
        }
        h
    }

    #[test]
    fn open_loop_charges_queueing_delay() {
        // Open-loop latency runs from each request's due time, `cell start
        // + i / rate`. Every bound below comes from instants observed
        // around the same run, so a slow or descheduled host moves each
        // bound with the charges it bounds; none is a fixed time. The
        // charges are compared bucket for bucket: a per-request bound
        // carries over to every percentile of the same histogram layout.
        const QUANTILES: [f64; 3] = [0.0, 0.5, 1.0];
        let since = |from: Instant, to: Instant| to.saturating_duration_since(from).as_nanos();

        // Keeping up (a 2ms server on a 4ms schedule): a request is
        // charged at least its own service time and no more than the time
        // from the earliest its due time can be to when the worker took
        // the next request: its own service and lateness, never time that
        // belongs to the requests before it.
        let step = 4_000_000u64;
        let (keeping_up, before, calls, after) = timed_cell(250.0);
        let service = histogram(calls.iter().map(|&(entry, exit)| since(entry, exit)));
        let until_next = histogram((0..calls.len()).map(|i| {
            let next = calls.get(i + 1).map_or(after, |&(entry, _)| entry);
            since(before + Duration::from_nanos(step * i as u64), next)
        }));
        for q in QUANTILES {
            let charged = keeping_up.overall.percentile(q);
            assert!(
                service.percentile(q) <= charged,
                "keeping-up q{q}: {charged} under service time"
            );
            assert!(
                charged <= until_next.percentile(q),
                "keeping-up q{q}: {charged} includes queueing"
            );
        }

        // Overloaded (all 20 due within 0.2ms): the one worker serves them
        // in turn, so request `i` is charged at least the service of
        // requests `0..=i` minus its due offset: queueing delay measured
        // from the due time. Sleeping at least 2ms a request puts the
        // median past 19.9ms and the last past 39.8ms.
        let step = 10_000u128;
        let (overloaded, _, calls, _) = timed_cell(100_000.0);
        let queued = histogram(calls.iter().enumerate().scan(
            0u128,
            |served, (i, &(entry, exit))| {
                *served += since(entry, exit);
                Some(served.saturating_sub(step * i as u128))
            },
        ));
        for q in QUANTILES {
            let charged = overloaded.overall.percentile(q);
            assert!(
                queued.percentile(q) <= charged,
                "overloaded q{q}: {charged} misses queueing"
            );
        }
        assert!(
            overloaded.overall.percentile(0.50) > 10_000_000,
            "overloaded p50 {} should include queueing delay",
            overloaded.overall.percentile(0.50)
        );
        assert!(
            overloaded.overall.percentile(0.99) > 20_000_000,
            "overloaded p99 {} should include queueing delay",
            overloaded.overall.percentile(0.99)
        );
    }

    #[test]
    fn factory_failure_fails_the_cell() {
        type Client = fn(&str) -> Result<ReplyOutcome, String>;
        let sched = schedule(4);
        let out = run_cell(
            &sched,
            &RunConfig {
                clients: 2,
                rate: 0.0,
            },
            &Obs::disabled(),
            |_| -> Result<Client, String> { Err("no daemon".into()) },
        );
        assert_eq!(out.unwrap_err(), "no daemon");
    }
}
