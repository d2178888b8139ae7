//! The metric registry and the sink handle instrumented code holds.

use crate::export::{MetricSnapshot, MetricValue, Snapshot};
use crate::metrics::{Counter, Gauge, Histogram, HistogramInner};
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};

/// One registered metric.
#[derive(Clone, Debug)]
enum Metric {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramInner>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A named table of metrics with get-or-create semantics.
///
/// Names must be `&'static str` — the interning is the type system's:
/// registering never copies or allocates a name, and resolving the same
/// name twice returns handles on the same atomics. Cloning the registry
/// is cheap and shares the table.
///
/// Resolution happens behind a mutex; instrumented code is expected to
/// resolve handles once (at construction / attach time) and record
/// through the lock-free handles thereafter.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<HashMap<&'static str, Metric>>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A sink backed by this registry.
    pub fn sink(&self) -> TelemetrySink {
        TelemetrySink {
            registry: Some(self.clone()),
        }
    }

    fn resolve(&self, name: &'static str, create: impl FnOnce() -> Metric) -> Metric {
        let mut table = self.inner.lock().expect("metrics registry poisoned");
        let entry = table.entry(name).or_insert_with(create);
        entry.clone()
    }

    /// The counter registered under `name`, created on first resolution.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind
    /// (a programming error: one name, one meaning).
    pub fn counter(&self, name: &'static str) -> Counter {
        match self.resolve(name, || Metric::Counter(Arc::new(AtomicU64::new(0)))) {
            Metric::Counter(c) => Counter(Some(c)),
            other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
        }
    }

    /// The gauge registered under `name`, created on first resolution.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        match self.resolve(name, || Metric::Gauge(Arc::new(AtomicU64::new(0)))) {
            Metric::Gauge(g) => Gauge(Some(g)),
            other => panic!("metric {name:?} is a {}, not a gauge", other.kind()),
        }
    }

    /// The histogram registered under `name`, created on first
    /// resolution.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        match self.resolve(name, || Metric::Histogram(Histogram::live().0.unwrap())) {
            Metric::Histogram(h) => Histogram(Some(h)),
            other => panic!("metric {name:?} is a {}, not a histogram", other.kind()),
        }
    }

    /// Registers an already-live counter under `name`, so stats that must
    /// count unconditionally (e.g. a store's internal accounting) appear
    /// in exported snapshots without double bookkeeping. A disabled
    /// handle is ignored.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with different atomics or
    /// as a different kind.
    pub(crate) fn adopt_counter(&self, name: &'static str, counter: &Counter) {
        let Some(arc) = &counter.0 else { return };
        let mut table = self.inner.lock().expect("metrics registry poisoned");
        match table.entry(name) {
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(Metric::Counter(arc.clone()));
            }
            std::collections::hash_map::Entry::Occupied(o) => match o.get() {
                Metric::Counter(existing) if Arc::ptr_eq(existing, arc) => {}
                other => panic!(
                    "metric {name:?} already registered as a distinct {}",
                    other.kind()
                ),
            },
        }
    }

    /// A point-in-time copy of every registered metric, sorted by name
    /// (deterministic export order).
    pub fn snapshot(&self) -> Snapshot {
        let table = self.inner.lock().expect("metrics registry poisoned");
        let mut metrics: Vec<MetricSnapshot> = table
            .iter()
            .map(|(&name, metric)| MetricSnapshot {
                name,
                value: match metric {
                    Metric::Counter(c) => {
                        MetricValue::Counter(c.load(std::sync::atomic::Ordering::Relaxed))
                    }
                    Metric::Gauge(g) => {
                        MetricValue::Gauge(g.load(std::sync::atomic::Ordering::Relaxed))
                    }
                    Metric::Histogram(h) => {
                        MetricValue::Histogram(Box::new(Histogram(Some(h.clone())).snapshot()))
                    }
                },
            })
            .collect();
        metrics.sort_by_key(|m| m.name);
        Snapshot { metrics }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("metrics registry poisoned").len()
    }

    /// Whether no metric has been registered yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The handle instrumented code holds: either disabled (the default —
/// every resolved metric is a no-op handle, recording costs one pointer
/// check) or backed by a [`MetricsRegistry`].
#[derive(Clone, Debug, Default)]
pub struct TelemetrySink {
    registry: Option<MetricsRegistry>,
}

impl TelemetrySink {
    /// The no-op sink.
    pub fn disabled() -> Self {
        TelemetrySink { registry: None }
    }

    /// Whether metrics resolved through this sink record anywhere.
    pub fn enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// The backing registry, if any.
    pub fn registry(&self) -> Option<&MetricsRegistry> {
        self.registry.as_ref()
    }

    /// This sink if it is enabled, otherwise a sink onto a fresh private
    /// registry — for components whose stats must always count, whether
    /// or not the caller wired up observability.
    pub fn or_private(&self) -> TelemetrySink {
        if self.enabled() {
            self.clone()
        } else {
            MetricsRegistry::new().sink()
        }
    }

    /// A counter handle for `name` (no-op when disabled).
    pub fn counter(&self, name: &'static str) -> Counter {
        self.registry
            .as_ref()
            .map_or_else(Counter::disabled, |r| r.counter(name))
    }

    /// A gauge handle for `name` (no-op when disabled).
    pub fn gauge(&self, name: &'static str) -> Gauge {
        self.registry
            .as_ref()
            .map_or_else(Gauge::disabled, |r| r.gauge(name))
    }

    /// A histogram handle for `name` (no-op when disabled).
    pub fn histogram(&self, name: &'static str) -> Histogram {
        self.registry
            .as_ref()
            .map_or_else(Histogram::disabled, |r| r.histogram(name))
    }
}

impl From<&MetricsRegistry> for TelemetrySink {
    fn from(registry: &MetricsRegistry) -> Self {
        registry.sink()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_shares_atomics() {
        let r = MetricsRegistry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(2);
        b.add(3);
        assert_eq!(a.value(), 5);
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let r = MetricsRegistry::new();
        let _ = r.counter("x");
        let _ = r.gauge("x");
    }

    #[test]
    fn disabled_sink_resolves_noop_handles() {
        let sink = TelemetrySink::disabled();
        assert!(!sink.enabled());
        let c = sink.counter("x");
        c.inc();
        assert_eq!(c.value(), 0);
        assert!(!sink.histogram("y_ns").enabled());
    }

    #[test]
    fn or_private_always_counts() {
        let sink = TelemetrySink::disabled().or_private();
        assert!(sink.enabled());
        let c = sink.counter("x");
        c.inc();
        assert_eq!(c.value(), 1);
        // An enabled sink passes through to the same registry.
        let r = MetricsRegistry::new();
        let again = r.sink().or_private();
        again.counter("y").inc();
        assert_eq!(r.snapshot().counter("y"), Some(1));
    }

    #[test]
    fn adopted_counter_appears_in_snapshots() {
        let r = MetricsRegistry::new();
        let live = Counter::live();
        live.add(7);
        r.adopt_counter("store.reads", &live);
        r.adopt_counter("store.reads", &live); // idempotent
        assert_eq!(r.snapshot().counter("store.reads"), Some(7));
        live.inc();
        assert_eq!(r.snapshot().counter("store.reads"), Some(8));
        r.adopt_counter("ignored", &Counter::disabled());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn snapshot_is_sorted_and_typed() {
        let r = MetricsRegistry::new();
        r.histogram("b_ns").record(5);
        r.counter("a").add(1);
        r.gauge("c").set(9);
        let s = r.snapshot();
        let names: Vec<_> = s.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, vec!["a", "b_ns", "c"]);
        assert_eq!(s.counter("a"), Some(1));
        assert_eq!(s.gauge("c"), Some(9));
        assert_eq!(s.histogram("b_ns").unwrap().count, 1);
        assert_eq!(s.counter("missing"), None);
    }
}
