//! The deterministic work-stealing executor.
//!
//! # Determinism contract
//!
//! For a pure per-item function `f`, the output of [`try_sweep`] (and of
//! [`sweep`] on the success path) is **bit-identical for every thread
//! count**, including 1:
//!
//! - results are collected *seed-ordered*: item `i`'s result is written
//!   to slot `i`, so the output `Vec` is in input order regardless of
//!   which worker ran which item or when it finished;
//! - each item is processed exactly once, by exactly one worker, with no
//!   per-thread state influencing the result;
//! - the sweep never stops early: even after a panic, the remaining
//!   items still run, so the error reported by [`sweep`] is always the
//!   *lowest-indexed* panicking item — the same one a serial run would
//!   hit first.
//!
//! Scheduling is dynamic: workers pull the next item from a shared
//! atomic cursor, so a straggler (one case whose compile takes 1000x the
//! median) occupies one worker while the rest drain the tail. This is
//! the property the old chunked map lacked — it pre-sliced the input, so
//! one slow chunk serialized the whole sweep.
//!
//! # Panic capture
//!
//! Each item runs under [`std::panic::catch_unwind`]. A panic is
//! recorded against its item index with its payload rendered to a
//! string; [`sweep`] attaches the caller's label for that item and
//! returns a typed [`SweepPanic`] instead of poisoning the process. The
//! sweep still completes every other item first, so a multi-panic run
//! reports deterministically (lowest index wins).

use clasp_obs::{Counter, Obs};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One captured worker panic, labelled with the case that caused it.
///
/// This is the typed replacement for the old harness's
/// `join().expect("worker panicked")`: the sweep fails, but the caller
/// learns *which* case failed and why, and every other case still ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPanic {
    /// Input index of the panicking item.
    pub index: usize,
    /// The caller-supplied label of the item (loop and machine names,
    /// a case seed — whatever replays the failure).
    pub label: String,
    /// The panic payload, rendered to a string.
    pub payload: String,
}

impl fmt::Display for SweepPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "case {} ({}) panicked: {}",
            self.index, self.label, self.payload
        )
    }
}

impl std::error::Error for SweepPanic {}

/// Resolve a thread-count request: `0` (or anything larger than the item
/// count) is clamped to `min(available_parallelism, items)`, never below
/// 1. Pass `0` for "use the machine".
pub fn resolve_threads(requested: usize, items: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let cap = if requested == 0 { hw } else { requested };
    cap.min(items.max(1)).max(1)
}

/// Render a `catch_unwind` payload: panics carry `&str` or `String`
/// almost always; anything else is reported opaquely.
fn render_payload(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Map `f` over `items` on `threads` workers (0 = auto), returning one
/// `Result` per item in input order: `Ok(r)` for items that completed,
/// `Err(payload)` for items that panicked. Never stops early.
pub fn try_sweep<T, R>(
    threads: usize,
    items: &[T],
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
{
    run(threads, items, f, &Obs::disabled())
}

/// The sweep behind every entry point, recording into `obs` as
/// [`sweep_observed`] describes.
fn run<T, R>(
    threads: usize,
    items: &[T],
    f: impl Fn(usize, &T) -> R + Sync,
    obs: &Obs,
) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
{
    let n = items.len();
    let threads = resolve_threads(threads, n);
    let sweep_span = obs.begin("exec.sweep");
    let results = if threads <= 1 {
        let worker_span = obs.begin("exec.worker");
        let out: Vec<Result<R, String>> = items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let r = catch_unwind(AssertUnwindSafe(|| f(i, item))).map_err(render_payload);
                obs.add(Counter::ExecItems, 1);
                r
            })
            .collect();
        obs.end_with(worker_span, || vec![("items", n.to_string())]);
        out
    } else {
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<R, String>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    let worker_span = obs.begin("exec.worker");
                    let mut pulled = 0u64;
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        pulled += 1;
                        let result = catch_unwind(AssertUnwindSafe(|| f(i, &items[i])))
                            .map_err(render_payload);
                        obs.add(Counter::ExecItems, 1);
                        *slots[i].lock().expect("slot lock") = Some(result);
                    }
                    obs.end_with(worker_span, || vec![("items", pulled.to_string())]);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("slot lock").expect("slot filled"))
            .collect()
    };
    obs.end_with(sweep_span, || {
        vec![("items", n.to_string()), ("threads", threads.to_string())]
    });
    results
}

/// [`try_sweep`] failing the whole sweep with a labelled [`SweepPanic`]
/// if any item panicked (lowest index wins; all items still run first,
/// so the choice is thread-count independent).
///
/// # Errors
///
/// [`SweepPanic`] for the lowest-indexed panicking item.
pub fn sweep<T, R>(
    threads: usize,
    items: &[T],
    label: impl Fn(usize, &T) -> String,
    f: impl Fn(usize, &T) -> R + Sync,
) -> Result<Vec<R>, SweepPanic>
where
    T: Sync,
    R: Send,
{
    sweep_observed(threads, items, label, f, &Obs::disabled())
}

/// [`sweep`] recording into an observability sink: one `exec.sweep`
/// span over the whole run, one `exec.worker` span per worker whose
/// `items` argument is the number of items that worker pulled from the
/// shared cursor (the per-worker distribution — a starved worker shows
/// few items against a long span, which is what steal contention looks
/// like under dynamic scheduling). Only the [`Counter::ExecItems`] total
/// is deterministic; the per-worker distribution is inherently racy and
/// stays in span args.
///
/// # Errors
///
/// [`SweepPanic`] for the lowest-indexed panicking item.
pub fn sweep_observed<T, R>(
    threads: usize,
    items: &[T],
    label: impl Fn(usize, &T) -> String,
    f: impl Fn(usize, &T) -> R + Sync,
    obs: &Obs,
) -> Result<Vec<R>, SweepPanic>
where
    T: Sync,
    R: Send,
{
    let mut out = Vec::with_capacity(items.len());
    for (i, result) in run(threads, items, f, obs).into_iter().enumerate() {
        match result {
            Ok(r) => out.push(r),
            Err(payload) => {
                return Err(SweepPanic {
                    index: i,
                    label: label(i, &items[i]),
                    payload,
                })
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn output_is_input_ordered_for_any_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let serial = sweep(1, &items, |i, _| i.to_string(), |_, &x| x * x).unwrap();
        for threads in [2, 3, 8, 64] {
            let parallel = sweep(threads, &items, |i, _| i.to_string(), |_, &x| x * x).unwrap();
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    /// Regression for the old chunked `parallel_map`: a single panicking
    /// case took the whole sweep down via `join().expect("worker
    /// panicked")` with no record of which case failed. The executor
    /// must instead report the case's index and label as a typed error.
    #[test]
    fn panic_is_captured_with_case_label() {
        let items: Vec<u32> = (0..100).collect();
        let err = sweep(
            4,
            &items,
            |_, &x| format!("loop-{x} on 4c-gp"),
            |_, &x| {
                if x == 37 {
                    panic!("no schedule at II {x}");
                }
                x
            },
        )
        .unwrap_err();
        assert_eq!(err.index, 37);
        assert_eq!(err.label, "loop-37 on 4c-gp");
        assert_eq!(err.payload, "no schedule at II 37");
        assert!(err.to_string().contains("loop-37 on 4c-gp"));
    }

    #[test]
    fn multi_panic_reports_lowest_index_on_every_thread_count() {
        let items: Vec<u32> = (0..64).collect();
        for threads in [1, 2, 7, 32] {
            let err = sweep(
                threads,
                &items,
                |i, _| format!("case {i}"),
                |_, &x| {
                    if x % 10 == 3 {
                        panic!("boom {x}");
                    }
                    x
                },
            )
            .unwrap_err();
            assert_eq!(err.index, 3, "threads = {threads}");
            assert_eq!(err.payload, "boom 3");
        }
    }

    #[test]
    fn all_items_run_despite_panics() {
        let ran = AtomicUsize::new(0);
        let items: Vec<u32> = (0..50).collect();
        let results = try_sweep(4, &items, |_, &x| {
            ran.fetch_add(1, Ordering::Relaxed);
            if x == 0 {
                panic!("first item");
            }
            x
        });
        assert_eq!(ran.load(Ordering::Relaxed), 50);
        assert_eq!(results.len(), 50);
        assert!(results[0].is_err());
        assert!(results[1..].iter().all(|r| r.is_ok()));
    }

    #[test]
    fn resolve_threads_clamps() {
        assert_eq!(resolve_threads(8, 3), 3);
        assert_eq!(resolve_threads(2, 100), 2);
        assert!(resolve_threads(0, 100) >= 1);
        assert_eq!(resolve_threads(0, 0), 1);
        assert_eq!(resolve_threads(5, 0), 1);
    }

    #[test]
    fn empty_input_is_fine() {
        let items: Vec<u32> = Vec::new();
        let out = sweep(4, &items, |_, _| String::new(), |_, &x| x).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn non_string_payload_is_reported_opaquely() {
        let items = [1u32];
        let err = sweep(
            1,
            &items,
            |_, _| "only".into(),
            |_, _| std::panic::panic_any(42u32),
        )
        .unwrap_err();
        assert_eq!(err.payload, "non-string panic payload");
    }
}
