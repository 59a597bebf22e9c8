//! Aggregated summaries: per-span latency percentiles plus counter and
//! gauge snapshots, renderable as aligned text or JSON.

use std::collections::HashMap;

use serde::{Serialize, Value};

use crate::recorder::{Event, Phase};
use crate::registry;
use crate::sink::{num, obj};

/// Nearest-rank percentile of an ascending-sorted duration list.
/// `percentile_ns(&d, 50.0)` is the median, `percentile_ns(&d, 99.0)`
/// the p99; an empty list yields 0.
pub fn percentile_ns(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Aggregated durations of one span name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStats {
    /// Span name.
    pub name: String,
    /// Completed (matched Begin/End) occurrences.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Median duration, ns.
    pub p50_ns: u64,
    /// 99th-percentile duration, ns.
    pub p99_ns: u64,
    /// Longest duration, ns.
    pub max_ns: u64,
}

/// A full telemetry summary.
#[derive(Debug, Clone, Default)]
pub struct TelemetryReport {
    /// Per-span aggregates, sorted by total time descending.
    pub spans: Vec<SpanStats>,
    /// Counter totals at summary time, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Gauge readings at summary time, name-sorted.
    pub gauges: Vec<(String, f64)>,
    /// Always-on histogram quantiles at summary time, name-sorted.
    /// Present without tracing — these come from the registry, not the
    /// span event stream.
    pub histograms: Vec<(String, crate::HistogramStats)>,
}

impl TelemetryReport {
    /// Aggregates a drained event stream (events must be per-thread
    /// ordered, which [`crate::drain`] guarantees). Unmatched boundaries
    /// are skipped.
    pub fn from_events(events: &[Event]) -> TelemetryReport {
        // Open-span stacks per thread; durations per span name.
        let mut stacks: HashMap<u64, Vec<(&'static str, u64)>> = HashMap::new();
        let mut durations: HashMap<&'static str, Vec<u64>> = HashMap::new();
        for e in events {
            let stack = stacks.entry(e.tid).or_default();
            match e.phase {
                Phase::Begin => stack.push((e.name, e.ts_ns)),
                Phase::End => {
                    if let Some(&(name, begin)) = stack.last() {
                        if name == e.name {
                            stack.pop();
                            durations.entry(name).or_default().push(e.ts_ns.saturating_sub(begin));
                        }
                    }
                }
            }
        }
        let mut spans: Vec<SpanStats> = durations
            .into_iter()
            .map(|(name, mut d)| {
                d.sort_unstable();
                SpanStats {
                    name: name.to_string(),
                    count: d.len() as u64,
                    total_ns: d.iter().sum(),
                    p50_ns: percentile_ns(&d, 50.0),
                    p99_ns: percentile_ns(&d, 99.0),
                    max_ns: *d.last().unwrap_or(&0),
                }
            })
            .collect();
        spans.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
        TelemetryReport { spans, counters: Vec::new(), gauges: Vec::new(), histograms: Vec::new() }
    }

    /// Attaches the current counter, gauge and histogram registry
    /// snapshots (histograms with zero observations are dropped).
    #[must_use]
    pub fn with_registry(mut self) -> Self {
        self.counters = registry::counters_snapshot();
        self.gauges = registry::gauges_snapshot();
        self.histograms = crate::histogram::histograms_snapshot()
            .into_iter()
            .filter(|(_, s)| s.count > 0)
            .collect();
        self
    }

    /// Looks up one span's aggregate by name.
    pub fn span(&self, name: &str) -> Option<&SpanStats> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Looks up one counter total by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Looks up one histogram's quantiles by name.
    pub fn histogram(&self, name: &str) -> Option<&crate::HistogramStats> {
        self.histograms.iter().find(|(k, _)| k == name).map(|(_, s)| s)
    }

    /// Renders an aligned text table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:>9} {:>13} {:>12} {:>12} {:>12}\n",
            "span", "count", "total ms", "p50 us", "p99 us", "max us"
        ));
        for s in &self.spans {
            out.push_str(&format!(
                "{:<28} {:>9} {:>13.3} {:>12.1} {:>12.1} {:>12.1}\n",
                s.name,
                s.count,
                s.total_ns as f64 / 1e6,
                s.p50_ns as f64 / 1e3,
                s.p99_ns as f64 / 1e3,
                s.max_ns as f64 / 1e3,
            ));
        }
        if !self.histograms.is_empty() {
            out.push_str(&format!(
                "{:<28} {:>9} {:>12} {:>12} {:>12} {:>12}\n",
                "histogram", "count", "p50 us", "p90 us", "p99 us", "max us"
            ));
            for (name, s) in &self.histograms {
                out.push_str(&format!(
                    "{:<28} {:>9} {:>12.1} {:>12.1} {:>12.1} {:>12.1}\n",
                    name,
                    s.count,
                    s.p50_ns as f64 / 1e3,
                    s.p90_ns as f64 / 1e3,
                    s.p99_ns as f64 / 1e3,
                    s.max_ns as f64 / 1e3,
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str(&format!("{:<40} {:>16}\n", "counter", "total"));
            for (name, v) in &self.counters {
                out.push_str(&format!("{name:<40} {v:>16}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str(&format!("{:<40} {:>16}\n", "gauge", "value"));
            for (name, v) in &self.gauges {
                out.push_str(&format!("{name:<40} {v:>16.1}\n"));
            }
        }
        out
    }

    /// Serialises the report as JSON. Names are escaped; a non-finite
    /// gauge is `null`.
    pub fn to_json(&self) -> String {
        let spans = self.spans.iter().map(|s| {
            obj(vec![
                ("name", s.name.to_value()),
                ("count", s.count.to_value()),
                ("total_ns", s.total_ns.to_value()),
                ("p50_ns", s.p50_ns.to_value()),
                ("p99_ns", s.p99_ns.to_value()),
                ("max_ns", s.max_ns.to_value()),
            ])
        });
        let histograms = self.histograms.iter().map(|(name, s)| {
            let stats = obj(vec![
                ("count", s.count.to_value()),
                ("p50_ns", s.p50_ns.to_value()),
                ("p90_ns", s.p90_ns.to_value()),
                ("p99_ns", s.p99_ns.to_value()),
                ("max_ns", s.max_ns.to_value()),
            ]);
            (name.clone(), stats)
        });
        let report = obj(vec![
            ("spans", Value::Seq(spans.collect())),
            ("histograms", Value::Map(histograms.collect())),
            (
                "counters",
                Value::Map(self.counters.iter().map(|(n, v)| (n.clone(), v.to_value())).collect()),
            ),
            ("gauges", Value::Map(self.gauges.iter().map(|(n, v)| (n.clone(), num(*v))).collect())),
        ]);
        serde_json::to_string_pretty(&report).expect("a value tree always renders")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_known_sequence() {
        // 1..=100 ns: median 50, p99 99, p100 100.
        let d: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&d, 50.0), 50);
        assert_eq!(percentile_ns(&d, 99.0), 99);
        assert_eq!(percentile_ns(&d, 100.0), 100);
        assert_eq!(percentile_ns(&d, 0.0), 1);
        assert_eq!(percentile_ns(&[], 50.0), 0);
        assert_eq!(percentile_ns(&[7], 99.0), 7);
    }

    #[test]
    fn aggregates_known_event_sequence() {
        // Three "work" spans of 10, 20 and 90 ns plus one nested "inner".
        let mk = |name: &'static str, phase, ts_ns| Event { name, phase, ts_ns, tid: 1, id: None };
        let events = vec![
            mk("work", Phase::Begin, 0),
            mk("work", Phase::End, 10),
            mk("work", Phase::Begin, 100),
            mk("inner", Phase::Begin, 105),
            mk("inner", Phase::End, 108),
            mk("work", Phase::End, 120),
            mk("work", Phase::Begin, 200),
            mk("work", Phase::End, 290),
        ];
        let report = TelemetryReport::from_events(&events);
        let work = report.span("work").unwrap();
        assert_eq!(work.count, 3);
        assert_eq!(work.total_ns, 10 + 20 + 90);
        assert_eq!(work.p50_ns, 20);
        assert_eq!(work.p99_ns, 90);
        assert_eq!(work.max_ns, 90);
        assert_eq!(report.span("inner").unwrap().total_ns, 3);
        // Spans sort by total time descending.
        assert_eq!(report.spans[0].name, "work");
        let text = report.render_text();
        assert!(text.contains("work") && text.contains("inner"));
    }

    #[test]
    fn json_is_parseable() {
        let events = vec![
            Event { name: "a", phase: Phase::Begin, ts_ns: 0, tid: 1, id: None },
            Event { name: "a", phase: Phase::End, ts_ns: 5, tid: 1, id: None },
        ];
        let json = TelemetryReport::from_events(&events).with_registry().to_json();
        serde_json::value_from_str(&json).expect("report JSON parses");
    }

    #[test]
    fn json_escapes_names_and_writes_non_finite_gauges_as_null() {
        let mut report = TelemetryReport::default();
        report.spans.push(SpanStats {
            name: "span \"quoted\"\n".into(),
            count: 1,
            total_ns: 2,
            p50_ns: 2,
            p99_ns: 2,
            max_ns: 2,
        });
        report.counters.push(("counter \\ \"x\"".into(), 3));
        report.gauges.push(("health.update_ratio".into(), f64::NAN));
        report.gauges.push(("gauge \"inf\"".into(), f64::INFINITY));
        report.gauges.push(("health.grad_norm".into(), 0.5));
        let json = serde_json::value_from_str(&report.to_json()).expect("report JSON parses");
        let span = json.field("spans").unwrap().index(0).unwrap();
        assert_eq!(span.field("name"), Ok(&Value::Str("span \"quoted\"\n".into())));
        assert_eq!(json.field("counters").unwrap().field("counter \\ \"x\""), Ok(&Value::I64(3)));
        let gauges = json.field("gauges").unwrap();
        assert_eq!(gauges.field("health.update_ratio"), Ok(&Value::Null));
        assert_eq!(gauges.field("gauge \"inf\""), Ok(&Value::Null));
        assert_eq!(gauges.field("health.grad_norm"), Ok(&Value::F64(0.5)));
    }
}
