//! The traced run's span sink: the benchmark wraps each call into a
//! layer's public functions in a `clasp_obs` span carrying the item id,
//! then folds the recorded spans into per-layer self times.
//!
//! Self time is a span's duration minus the part of it that its direct
//! children cover. Every span must nest inside an `item` span on the
//! same thread; the `item` span's own self time is the glue between
//! layer calls and is reported as `driver.other_ms`. By construction the
//! self times of all spans add up to the summed item durations, and
//! [`SelfTimes::fold`] checks that they do.

use clasp::obs::{Obs, SpanRecord};
use std::collections::BTreeMap;
use std::time::Duration;

/// Name of the root span wrapped around one item.
pub const ITEM: &str = "item";

/// A recording sink plus the id of the item being rebuilt.
pub struct Tracer {
    obs: Obs,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            obs: Obs::enabled(),
        }
    }

    /// Run `f` inside a span named `name`, tagged with `item`.
    pub fn span<T>(&self, name: &'static str, item: usize, f: impl FnOnce() -> T) -> T {
        self.span_timed(name, item, f).0
    }

    /// [`Tracer::span`] also returning the span's duration.
    pub fn span_timed<T>(
        &self,
        name: &'static str,
        item: usize,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let span = self.obs.begin(name);
        let value = f();
        let took = self.obs.end_with(span, || vec![("item", item.to_string())]);
        (value, took)
    }

    /// The underlying sink, for spans opened and closed across callbacks.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Chrome trace-event JSON of everything recorded.
    pub fn chrome_trace(&self) -> String {
        self.obs.chrome_trace()
    }

    pub fn spans(&self) -> Vec<SpanRecord> {
        self.obs.spans()
    }
}

/// Per-span-name self time, folded from one traced pass.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SelfTimes {
    /// Self time in ns per span name (the `item` entry is the glue). A
    /// span with an `outcome` attribute is filed as `name.outcome`.
    pub by_name: BTreeMap<String, u64>,
    /// Summed `item` span durations in ns.
    pub item_ns: u64,
    /// Number of `item` spans.
    pub items: usize,
}

impl SelfTimes {
    /// Fold spans into self times. Spans on one thread nest because
    /// begin/end bracket call scopes; nesting is recovered from
    /// containment.
    ///
    /// # Errors
    ///
    /// A description of the first span that lies outside every `item`
    /// span, or of a self-time sum that does not equal the item total.
    pub fn fold(spans: &[SpanRecord]) -> Result<SelfTimes, String> {
        let mut by_tid: BTreeMap<u32, Vec<&SpanRecord>> = BTreeMap::new();
        for s in spans {
            by_tid.entry(s.tid).or_default().push(s);
        }
        let mut out = SelfTimes::default();
        for (_, mut list) in by_tid {
            // Parents before children: earlier start first, and on a tie
            // the longer (enclosing) span first.
            list.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(b.dur_ns.cmp(&a.dur_ns)));
            let mut selfs: Vec<u64> = list.iter().map(|s| s.dur_ns).collect();
            let mut stack: Vec<usize> = Vec::new();
            for (i, s) in list.iter().enumerate() {
                while let Some(&top) = stack.last() {
                    // A zero-length span on its parent's closing instant
                    // still belongs to it.
                    let end = list[top].end_ns();
                    if end < s.start_ns || (end == s.start_ns && s.dur_ns > 0) {
                        stack.pop();
                    } else {
                        break;
                    }
                }
                match stack.last() {
                    Some(&parent) => {
                        if s.end_ns() > list[parent].end_ns() {
                            return Err(format!(
                                "span `{}` overlaps its parent `{}` without nesting",
                                s.name, list[parent].name
                            ));
                        }
                        selfs[parent] = selfs[parent].checked_sub(s.dur_ns).ok_or_else(|| {
                            format!("children of `{}` outlast it", list[parent].name)
                        })?;
                    }
                    None if s.name != ITEM => {
                        return Err(format!("span `{}` lies outside every item span", s.name));
                    }
                    None => {}
                }
                if s.name == ITEM {
                    if !stack.is_empty() {
                        return Err("item span nested inside another span".to_string());
                    }
                    out.item_ns += s.dur_ns;
                    out.items += 1;
                }
                stack.push(i);
            }
            for (s, self_ns) in list.iter().zip(selfs) {
                let key = match s.args.iter().find(|(k, _)| *k == "outcome") {
                    Some((_, outcome)) => format!("{}.{outcome}", s.name),
                    None => s.name.to_string(),
                };
                *out.by_name.entry(key).or_insert(0) += self_ns;
            }
        }
        let total: u64 = out.by_name.values().sum();
        if total != out.item_ns {
            return Err(format!(
                "self times sum to {total} ns but items took {} ns",
                out.item_ns
            ));
        }
        Ok(out)
    }

    /// Self time of `name` in ns (0 when never recorded).
    pub fn ns(&self, name: &str) -> u64 {
        self.by_name.get(name).copied().unwrap_or(0)
    }

    /// Mean self time of the named spans per item, in ms.
    pub fn per_item_ms(&self, names: &[&str]) -> f64 {
        self.per_item_ns(names) / 1e6
    }

    /// Mean self time of the named spans per item, in µs.
    pub fn per_item_us(&self, names: &[&str]) -> f64 {
        self.per_item_ns(names) / 1e3
    }

    fn per_item_ns(&self, names: &[&str]) -> f64 {
        if self.items == 0 {
            return 0.0;
        }
        let ns: u64 = names.iter().map(|n| self.ns(n)).sum();
        ns as f64 / self.items as f64
    }

    /// Names recorded that `known` does not list: a span whose time
    /// would be reported nowhere.
    pub fn unreported<'a>(&'a self, known: &'a [&str]) -> impl Iterator<Item = &'a str> + 'a {
        self.by_name
            .keys()
            .map(String::as_str)
            .filter(move |n| *n != ITEM && !known.contains(n))
    }
}

/// Write the traced pass as Chrome trace JSON under the benchmark's
/// ignored output directory. Failure to write is reported, not fatal.
pub fn write_chrome_trace(workload: &str, tracer: &Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{workload}.trace.json"));
    let result =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.chrome_trace()));
    match result {
        Ok(()) => println!("trace: wrote {}", path.display()),
        Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, tid: u32, start_ns: u64, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            name,
            tid,
            start_ns,
            dur_ns,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            rec(ITEM, 0, 0, 100),
            rec("a", 0, 10, 50),
            rec("b", 0, 20, 10),
            rec("c", 0, 70, 20),
            rec(ITEM, 1, 5, 30),
            rec("a", 1, 5, 30),
        ];
        let t = SelfTimes::fold(&spans).unwrap();
        assert_eq!(t.ns(ITEM), 30);
        assert_eq!(t.ns("a"), 40 + 30);
        assert_eq!(t.ns("b"), 10);
        assert_eq!(t.ns("c"), 20);
        assert_eq!(t.items, 2);
        assert_eq!(t.item_ns, 130);
        assert_eq!(t.per_item_us(&["b", "c"]), 0.015);
    }

    #[test]
    fn an_outcome_attribute_splits_a_span_name() {
        let mut sat = rec("rung", 0, 10, 5);
        sat.args.push(("outcome", "sat".to_string()));
        let spans = [rec(ITEM, 0, 0, 20), sat, rec("rung", 0, 15, 2)];
        let t = SelfTimes::fold(&spans).unwrap();
        assert_eq!((t.ns("rung.sat"), t.ns("rung"), t.ns(ITEM)), (5, 2, 13));
    }

    #[test]
    fn a_span_outside_any_item_is_refused() {
        let spans = [rec(ITEM, 0, 0, 10), rec("a", 0, 20, 5)];
        assert!(SelfTimes::fold(&spans).is_err());
        let overlapping = [rec(ITEM, 0, 0, 10), rec("a", 0, 5, 10)];
        assert!(SelfTimes::fold(&overlapping).is_err());
    }

    #[test]
    fn recorded_spans_fold_to_their_item_time() {
        let tracer = Tracer::new();
        for item in 0..3 {
            tracer.span(ITEM, item, || {
                tracer.span("outer", item, || tracer.span("inner", item, || item * 2))
            });
        }
        let t = SelfTimes::fold(&tracer.spans()).unwrap();
        assert_eq!(t.items, 3);
        let known = ["outer", "inner"];
        assert_eq!(t.unreported(&known).count(), 0);
        assert_eq!(t.unreported(&["outer"]).collect::<Vec<_>>(), vec!["inner"]);
    }
}
