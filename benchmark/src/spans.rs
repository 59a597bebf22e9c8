//! Spans recorded by the benchmark around its calls into each crate.
//!
//! The recorder lives on one thread (the sequential replica is single
//! threaded by definition), keeps every span in memory, and is written
//! to `trace.json` only after the replica has finished, so recording
//! costs two clock reads and a `Vec` push per span.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::Value;

use crate::stats;

/// One timed call: its name, when it ran, and the span that caused it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span log with a stack of the spans currently open.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        let parent = self.open.iter().rev().nth(1).copied();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times one call that opens no spans of its own.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "spans still open at the end of the replica");
        self.spans
    }
}

/// Self time of every span: its duration minus the part of it its direct
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Per-name summary of a span log.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
    pub median_ns: f64,
    /// `(percentile, value)` of the highest percentile with at least ten
    /// samples beyond it.
    pub tail_ns: Option<(f64, f64)>,
}

pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, Summary> {
    let own = self_times(spans);
    let mut durations: BTreeMap<&'static str, (Vec<f64>, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(own) {
        let e = durations.entry(s.name).or_default();
        e.0.push(s.duration_ns() as f64);
        e.1 += own;
    }
    durations
        .into_iter()
        .map(|(name, (d, self_ns))| {
            let summary = Summary {
                count: d.len(),
                total_ns: d.iter().sum::<f64>() as u64,
                self_ns,
                median_ns: stats::median(&d),
                tail_ns: stats::tail_percentile(d.len()).map(|p| (p, stats::percentile(&d, p))),
            };
            (name, summary)
        })
        .collect()
}

/// The span log as `trace.json`: one `[name, start_ns, end_ns, parent]`
/// row per span (`parent` is a row index or `null`).
pub fn to_json(spans: &[Span]) -> Value {
    let rows = spans
        .iter()
        .map(|s| {
            Value::Seq(vec![
                Value::Str(s.name.to_string()),
                Value::U64(s.start_ns),
                Value::U64(s.end_ns),
                s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
            ])
        })
        .collect();
    Value::Map(vec![
        ("columns".to_string(), crate::json::strs(&["name", "start_ns", "end_ns", "parent"])),
        ("spans".to_string(), Value::Seq(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("iteration", 0, 100, None),
            span("rollout", 10, 60, Some(0)),
            span("env.step", 20, 35, Some(1)),
            span("env.step", 40, 50, Some(1)),
            span("learn", 60, 95, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![15, 25, 15, 10, 35]);
        // Self times of a tree add up to its root.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_by_open_stack() {
        let mut r = Recorder::new();
        r.enter("iteration");
        r.leaf("a", || ());
        r.enter("b");
        r.leaf("c", || ());
        r.exit();
        r.exit();
        let spans = r.into_spans();
        let parents: Vec<Option<usize>> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[3].end_ns);
    }

    #[test]
    fn summary_groups_by_name_and_applies_the_tail_rule() {
        let mut spans = vec![span("root", 0, 1_000_000, None)];
        for i in 0..40u64 {
            spans.push(span("leaf", i * 100, i * 100 + i + 1, Some(0)));
        }
        let s = summarize(&spans);
        assert_eq!(s["leaf"].count, 40);
        assert_eq!(s["leaf"].median_ns, 20.5);
        assert_eq!(s["leaf"].tail_ns, Some((75.0, 30.0)));
        assert_eq!(s["root"].tail_ns, None);
        assert_eq!(s["root"].self_ns, 1_000_000 - (1..=40).sum::<u64>());
    }
}
