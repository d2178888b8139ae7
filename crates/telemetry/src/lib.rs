//! # earthplus-telemetry — unified mission telemetry
//!
//! Every subsystem of the Earth+ reproduction (codec, on-board pipeline,
//! ground service, storage engine, simulator) needs the same three
//! primitives: monotonic counters, gauges, and log2-bucketed histograms of
//! latencies and sizes — plus a way to time a stage, export a run's
//! metrics, and answer "where did the milliseconds go" for a whole
//! mission. This crate is that substrate, std-only and dependency-free:
//!
//! * [`metrics`] — [`Counter`], [`Gauge`], and [`Histogram`] handles.
//!   Handles are cheap `Arc` clones recording with relaxed atomics; a
//!   *disabled* handle is a `None` pointer that records nothing and makes
//!   no timed stage read the clock.
//! * [`registry`] — [`MetricsRegistry`], a name-interned (static `&str`
//!   names only) get-or-create table of metrics, and [`TelemetrySink`],
//!   the handle instrumented code holds: disabled by default, backed by a
//!   registry when observability is on.
//! * [`export`] — [`Snapshot`]: a point-in-time copy of every metric,
//!   with [`Snapshot::delta`] for per-pass rates, a JSON-lines serializer
//!   (`to_jsonl`), and an aligned human-readable table (`to_table`).
//! * [`trace`] / [`recorder`] — causal capture tracing: a [`TraceId`]
//!   minted per capture, typed begin/end/instant [`trace::TraceEvent`]s
//!   collected by the [`FlightRecorder`] into bounded per-track rings,
//!   and a Chrome trace-event / Perfetto exporter
//!   ([`trace::TraceLog::to_chrome_trace`]). [`TraceSink`] mirrors
//!   [`TelemetrySink`]: a disabled sink records nothing. A [`TraceSpan`]
//!   is also the one stage timer: one pair of clock readings stamps its
//!   Begin/End events, feeds the stage histogram attached with
//!   [`TraceSpan::record_into`], and is the elapsed time
//!   [`TraceSpan::finish`] returns. A stage reads no clock unless
//!   something consumes its time.
//! * [`series`] / [`health`] — windowed time-series over snapshot
//!   deltas ([`SeriesRecorder`] → [`TelemetrySeries`]) and a
//!   declarative [`HealthRule`] engine over them, so a mission report
//!   can say *when* things degraded and whether that crossed a
//!   threshold.
//!
//! # Naming scheme
//!
//! Metric names are lowercase, dot-separated
//! `<subsystem>.<operation>[.<detail>]`, with a unit suffix on
//! histograms: `_ns` for latency (recorded in nanoseconds), `_bytes` for
//! sizes. The canonical names used across the workspace live in
//! [`names`], so instrumentation sites and dashboards cannot drift apart.
//!
//! # Example
//!
//! ```
//! use earthplus_telemetry::{MetricsRegistry, TraceSink};
//!
//! let registry = MetricsRegistry::new();
//! let sink = registry.sink();
//! let tracing = TraceSink::disabled();
//! let encodes = sink.counter("codec.encode.count");
//! let latency = sink.histogram("codec.encode_ns");
//! for _ in 0..10 {
//!     let _span = tracing.span("codec", "encode").record_into(&latency);
//!     encodes.inc();
//! }
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counter("codec.encode.count"), Some(10));
//! assert_eq!(snapshot.histogram("codec.encode_ns").unwrap().count, 10);
//! println!("{}", snapshot.to_table());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod export;
pub mod health;
pub mod metrics;
pub mod names;
pub mod recorder;
pub mod registry;
pub mod series;
pub mod trace;

pub use export::{humanize, json_escape, MetricSnapshot, MetricValue, Snapshot};
pub use health::{
    evaluate as evaluate_health, verdicts_table, HealthCheck, HealthRule, HealthStatus,
    HealthVerdict,
};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS};
pub use recorder::{FlightRecorder, TraceScope, TraceSink, TraceSpan, DEFAULT_RING_CAPACITY};
pub use registry::{MetricsRegistry, TelemetrySink};
pub use series::{SeriesMetric, SeriesRecorder, SeriesSpec, TelemetrySeries};
pub use trace::{TraceArg, TraceEvent, TraceEventKind, TraceId, TraceLog, TraceTrack, TraceValue};

/// Hit fraction over all lookups; 0 when nothing was looked up.
///
/// The one hit-rate formula shared by every cache in the workspace (the
/// ground reference caches, the refstore segment-handle cache, …), so
/// each stats struct stops hand-rolling its own copy.
pub fn hit_rate(hits: u64, misses: u64) -> f64 {
    let lookups = hits + misses;
    if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    }
}

#[cfg(test)]
mod tests {
    use super::hit_rate;

    #[test]
    fn hit_rate_formula() {
        assert_eq!(hit_rate(0, 0), 0.0);
        assert_eq!(hit_rate(3, 1), 0.75);
        assert_eq!(hit_rate(0, 5), 0.0);
        assert_eq!(hit_rate(5, 0), 1.0);
    }
}
