//! Exportable snapshots: stable JSON-lines serialization, cumulative
//! deltas, and an aligned human-readable table.

use crate::metrics::HistogramSnapshot;
use std::fmt::Write as _;

/// The exported value of one metric.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum MetricValue {
    /// Monotonic counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(u64),
    /// Histogram summary (boxed: the bucket array dwarfs the scalar
    /// variants).
    Histogram(Box<HistogramSnapshot>),
}

/// One metric in a snapshot.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct MetricSnapshot {
    /// The interned metric name.
    pub name: &'static str,
    /// The captured value.
    pub value: MetricValue,
}

/// A point-in-time copy of a whole registry, sorted by metric name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Every metric, in name order.
    pub(crate) metrics: Vec<MetricSnapshot>,
}

impl Snapshot {
    /// The counter registered under `name`, if any.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.find(name).and_then(|m| match &m.value {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        })
    }

    /// The gauge registered under `name`, if any.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.find(name).and_then(|m| match &m.value {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        })
    }

    /// The histogram registered under `name`, if any.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.find(name).and_then(|m| match &m.value {
            MetricValue::Histogram(h) => Some(h.as_ref()),
            _ => None,
        })
    }

    fn find(&self, name: &str) -> Option<&MetricSnapshot> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// What happened between `earlier` and `self`: counters and histogram
    /// counts subtract; gauges keep their current value (a gauge is
    /// already a point-in-time reading). Metrics absent from `earlier`
    /// pass through whole — they were created after the earlier snapshot.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let metrics = self
            .metrics
            .iter()
            .map(|m| MetricSnapshot {
                name: m.name,
                value: match (&m.value, earlier.find(m.name).map(|e| &e.value)) {
                    (MetricValue::Counter(now), Some(MetricValue::Counter(then))) => {
                        MetricValue::Counter(now.saturating_sub(*then))
                    }
                    (MetricValue::Histogram(now), Some(MetricValue::Histogram(then))) => {
                        MetricValue::Histogram(Box::new(now.delta(then)))
                    }
                    (value, _) => value.clone(),
                },
            })
            .collect();
        Snapshot { metrics }
    }

    /// Serializes the snapshot as JSON lines — one object per metric, in
    /// name order, matching the workspace's hand-rolled
    /// `BENCH_pipeline.json` idiom (the build is offline; there is no
    /// JSON dependency, and we write the format we parse).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            match &m.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(
                        out,
                        r#"{{"name":"{}","kind":"counter","value":{v}}}"#,
                        json_escape(m.name)
                    );
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(
                        out,
                        r#"{{"name":"{}","kind":"gauge","value":{v}}}"#,
                        json_escape(m.name)
                    );
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        r#"{{"name":"{}","kind":"histogram","count":{},"sum":{},"min":{},"max":{},"p50":{},"p90":{},"p99":{}}}"#,
                        json_escape(m.name),
                        h.count,
                        h.sum,
                        h.min,
                        h.max,
                        h.quantile(0.5),
                        h.quantile(0.9),
                        h.quantile(0.99),
                    );
                }
            }
        }
        out
    }

    /// Renders the snapshot as an aligned table: histograms first
    /// (count, p50/p90/p99, max, total), then counters and gauges.
    /// Values of `_ns` metrics are humanized as durations, `_bytes` as
    /// sizes.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let histograms: Vec<_> = self
            .metrics
            .iter()
            .filter_map(|m| match &m.value {
                MetricValue::Histogram(h) => Some((m.name, h.as_ref())),
                _ => None,
            })
            .collect();
        let scalars: Vec<_> = self
            .metrics
            .iter()
            .filter_map(|m| match &m.value {
                MetricValue::Counter(v) => Some((m.name, "counter", *v)),
                MetricValue::Gauge(v) => Some((m.name, "gauge", *v)),
                MetricValue::Histogram(_) => None,
            })
            .collect();
        let name_width = self
            .metrics
            .iter()
            .map(|m| m.name.len())
            .max()
            .unwrap_or(6)
            .max("metric".len());
        if !histograms.is_empty() {
            let _ = writeln!(
                out,
                "{:<name_width$} {:>9} {:>11} {:>11} {:>11} {:>11} {:>11}",
                "metric", "count", "p50", "p90", "p99", "max", "total",
            );
            for (name, h) in histograms {
                let _ = writeln!(
                    out,
                    "{:<name_width$} {:>9} {:>11} {:>11} {:>11} {:>11} {:>11}",
                    name,
                    h.count,
                    humanize(name, h.quantile(0.5)),
                    humanize(name, h.quantile(0.9)),
                    humanize(name, h.quantile(0.99)),
                    humanize(name, h.max),
                    humanize(name, h.sum),
                );
            }
        }
        if !scalars.is_empty() {
            if !out.is_empty() {
                let _ = writeln!(out);
            }
            let _ = writeln!(
                out,
                "{:<name_width$} {:>9} {:>11}",
                "metric", "kind", "value",
            );
            for (name, kind, v) in scalars {
                let _ = writeln!(
                    out,
                    "{:<name_width$} {:>9} {:>11}",
                    name,
                    kind,
                    humanize(name, v),
                );
            }
        }
        out
    }
}

/// Formats `value` according to the unit suffix of `name` (`_ns` →
/// duration, `_bytes` → size, otherwise a plain integer) — the same
/// rendering [`Snapshot::to_table`] uses, for callers building their own
/// tables out of metric values.
pub fn humanize(name: &str, value: u64) -> String {
    if name.ends_with("_ns") {
        humanize_ns(value)
    } else if name.ends_with("_bytes") || name.ends_with(".bytes_sent") {
        humanize_bytes(value)
    } else {
        value.to_string()
    }
}

/// Escapes a string for embedding inside a JSON string literal: quotes
/// and backslashes are backslash-escaped, control characters become
/// `\n`/`\r`/`\t` or `\u00XX`. Used by both [`Snapshot::to_jsonl`] and
/// the trace exporter, so hostile metric/event names cannot produce
/// invalid JSON.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats nanoseconds with an adaptive unit: `ns` below 1 µs, then
/// `us`, `ms`, and `s` (two decimals) at and above one second.
pub(crate) fn humanize_ns(ns: u64) -> String {
    let v = ns as f64;
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", v / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", v / 1e6)
    } else {
        format!("{:.2}s", v / 1e9)
    }
}

/// Formats a byte count with an adaptive unit: `B` below 1 KiB, then
/// `KiB`, `MiB`, and `GiB` (two decimals) at and above one gibibyte.
fn humanize_bytes(bytes: u64) -> String {
    let v = bytes as f64;
    if bytes < 1024 {
        format!("{bytes}B")
    } else if bytes < 1024 * 1024 {
        format!("{:.1}KiB", v / 1024.0)
    } else if bytes < 1024 * 1024 * 1024 {
        format!("{:.1}MiB", v / (1024.0 * 1024.0))
    } else {
        format!("{:.2}GiB", v / (1024.0 * 1024.0 * 1024.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    fn sample() -> MetricsRegistry {
        let r = MetricsRegistry::new();
        r.counter("ground.ingest.accepted").add(12);
        r.gauge("ground.cache.peak_bytes").set(2048);
        let h = r.histogram("stage.encode_ns");
        for v in [1_000u64, 2_000, 1_500_000] {
            h.record(v);
        }
        r
    }

    #[test]
    fn jsonl_is_stable_and_line_per_metric() {
        let s = sample().snapshot();
        let jsonl = s.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            r#"{"name":"ground.cache.peak_bytes","kind":"gauge","value":2048}"#
        );
        assert_eq!(
            lines[1],
            r#"{"name":"ground.ingest.accepted","kind":"counter","value":12}"#
        );
        assert!(lines[2].starts_with(r#"{"name":"stage.encode_ns","kind":"histogram","count":3,"#));
        // Re-snapshotting without recording yields the identical bytes.
        assert_eq!(jsonl, sample().snapshot().to_jsonl());
    }

    #[test]
    fn delta_subtracts_counters_keeps_gauges() {
        let r = sample();
        let before = r.snapshot();
        r.counter("ground.ingest.accepted").add(5);
        r.gauge("ground.cache.peak_bytes").set(4096);
        r.histogram("stage.encode_ns").record(3_000);
        r.counter("ground.ingest.rejected").add(2); // created after `before`
        let d = r.snapshot().delta(&before);
        assert_eq!(d.counter("ground.ingest.accepted"), Some(5));
        assert_eq!(d.counter("ground.ingest.rejected"), Some(2));
        assert_eq!(d.gauge("ground.cache.peak_bytes"), Some(4096));
        assert_eq!(d.histogram("stage.encode_ns").unwrap().count, 1);
    }

    #[test]
    fn table_aligns_and_humanizes() {
        let table = sample().snapshot().to_table();
        assert!(table.contains("stage.encode_ns"));
        assert!(table.contains("1.50ms"), "table:\n{table}");
        assert!(table.contains("2.0KiB"), "table:\n{table}");
        // Aligned: every non-empty line of each section is equally wide.
        let lines: Vec<&str> = table.lines().filter(|l| !l.is_empty()).collect();
        assert!(lines.len() >= 4);
    }

    #[test]
    fn humanize_units() {
        assert_eq!(humanize("x_ns", 999), "999ns");
        assert_eq!(humanize("x_ns", 1_500), "1.5us");
        assert_eq!(humanize("x_ns", 2_500_000_000), "2.50s");
        assert_eq!(humanize("x_bytes", 500), "500B");
        assert_eq!(humanize("x_bytes", 3 << 20), "3.0MiB");
        assert_eq!(humanize("plain", 7), "7");
    }

    #[test]
    fn humanize_large_values_switch_units_at_the_boundary() {
        // One nanosecond under a second still renders in ms; from one
        // second on, seconds with two decimals — never a huge ms figure.
        assert_eq!(humanize("x_ns", 999_999_999), "1000.00ms");
        assert_eq!(humanize("x_ns", 1_000_000_000), "1.00s");
        assert_eq!(humanize("x_ns", 90_000_000_000), "90.00s");
        assert_eq!(humanize("x_ns", 3_600_000_000_000), "3600.00s");
        // Same for bytes at the GiB boundary.
        assert_eq!(humanize("x_bytes", (1 << 30) - 1), "1024.0MiB");
        assert_eq!(humanize("x_bytes", 1 << 30), "1.00GiB");
        assert_eq!(humanize("x_bytes", 5 * (1 << 30) + (1 << 29)), "5.50GiB");
        assert_eq!(humanize("x_bytes", 1 << 40), "1024.00GiB");
        // The uplink counter's ".bytes_sent" suffix humanizes too.
        assert_eq!(humanize("ground.uplink.bytes_sent", 1 << 30), "1.00GiB");
    }

    #[test]
    fn json_escape_neutralizes_hostile_strings() {
        assert_eq!(json_escape("plain.name_ns"), "plain.name_ns");
        assert_eq!(json_escape(r#"a"b"#), r#"a\"b"#);
        assert_eq!(json_escape(r"a\b"), r"a\\b");
        assert_eq!(json_escape("a\nb\tc"), r"a\nb\tc");
        assert_eq!(json_escape("\u{1}"), r"\u0001");
    }

    #[test]
    fn jsonl_escapes_hostile_metric_names() {
        // Names are &'static str; a hostile one can still arrive via
        // Box::leak in downstream code, so the exporter must not trust
        // them.
        let hostile: &'static str = Box::leak(r#"evil"name\with_ns"#.to_string().into_boxed_str());
        let r = MetricsRegistry::new();
        r.counter(hostile).add(1);
        r.histogram(Box::leak(r#"h"ist_ns"#.to_string().into_boxed_str()))
            .record(5);
        let jsonl = r.snapshot().to_jsonl();
        for line in jsonl.lines() {
            // Every line must be a self-contained JSON object with
            // balanced, escaped quotes: strip escaped sequences and
            // count the remaining quotes — they must be even.
            let unescaped = line.replace("\\\\", "").replace("\\\"", "");
            assert_eq!(
                unescaped.matches('"').count() % 2,
                0,
                "unbalanced quotes in {line}"
            );
        }
        assert!(jsonl.contains(r#"evil\"name\\with_ns"#), "jsonl:\n{jsonl}");
    }
}
