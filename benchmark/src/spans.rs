//! Bench-side spans: one record around every call the replay loop makes
//! into a layer's public function, kept in memory and written as JSON
//! lines when the run ends. No instrumentation lives inside the crates;
//! these are taken from outside, at the seams the public API offers.

use crate::json::{obj, Json};
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.call`.
    pub name: &'static str,
    /// Start, nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the log's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the log, if any.
    pub parent: Option<u32>,
    /// The tape event that caused the call — the identifier every span of
    /// one request shares.
    pub trace_id: u64,
}

/// The in-memory span log of one run. A disabled log records nothing, so
/// untraced replays pay only the `Instant` reads they need anyway.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Option<Vec<Span>>,
    /// Span enclosing the calls being recorded (the current replay).
    scope: Option<u32>,
}

impl SpanLog {
    /// A log that records.
    pub fn enabled() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Some(Vec::new()),
            scope: None,
        }
    }

    /// A log that drops everything.
    pub fn disabled() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: None,
            scope: None,
        }
    }

    /// Whether spans are being kept.
    pub fn is_enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Records a finished call under the current scope.
    pub fn record(&mut self, name: &'static str, trace_id: u64, start: Instant, took: Duration) {
        let parent = self.scope;
        self.push(name, trace_id, start, took, parent);
    }

    /// Opens a scope: records a span whose end is patched by
    /// [`SpanLog::close_scope`], and parents later spans under it.
    pub fn open_scope(&mut self, name: &'static str, trace_id: u64, start: Instant) {
        self.scope = self.push(name, trace_id, start, Duration::ZERO, None);
    }

    /// Closes the scope opened last.
    pub fn close_scope(&mut self, took: Duration) {
        if let (Some(spans), Some(index)) = (self.spans.as_mut(), self.scope.take()) {
            let span = &mut spans[index as usize];
            span.end_ns = span.start_ns + nanos(took);
        }
    }

    fn push(
        &mut self,
        name: &'static str,
        trace_id: u64,
        start: Instant,
        took: Duration,
        parent: Option<u32>,
    ) -> Option<u32> {
        let spans = self.spans.as_mut()?;
        let start_ns = nanos(start.saturating_duration_since(self.epoch));
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + nanos(took),
            parent,
            trace_id,
        });
        u32::try_from(spans.len() - 1).ok()
    }

    /// The spans kept so far.
    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    ///
    /// Propagates file I/O errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans().iter().enumerate() {
            let line = obj([
                ("id", id.into()),
                ("name", span.name.into()),
                ("start_ns", span.start_ns.into()),
                ("end_ns", span.end_ns.into()),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| (p as u64).into()),
                ),
                ("trace_id", span.trace_id.into()),
            ]);
            writeln!(out, "{}", line.to_line())?;
        }
        out.flush()
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Times `f` and records it as `name` when the log is enabled; returns
/// the result and the seconds it took.
pub fn timed<T>(
    log: &mut SpanLog,
    name: &'static str,
    trace_id: u64,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    let took = start.elapsed();
    log.record(name, trace_id, start, took);
    (value, took.as_secs_f64())
}

/// Median cost of one `Instant::now()` + `elapsed()` pair, nanoseconds —
/// what every timed call in a replay pays on top of the work it times.
pub fn timer_overhead_ns() -> f64 {
    let mut batches: Vec<f64> = (0..9)
        .map(|_| {
            const N: u32 = 20_000;
            let start = Instant::now();
            for _ in 0..N {
                std::hint::black_box(Instant::now().elapsed());
            }
            start.elapsed().as_nanos() as f64 / N as f64
        })
        .collect();
    batches.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    batches[batches.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_open_scope() {
        let mut log = SpanLog::enabled();
        let t0 = Instant::now();
        log.open_scope("bench.replay", 0, t0);
        let ((), s) = timed(&mut log, "core.on_capture", 7, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        assert!(s >= 0.002);
        log.close_scope(t0.elapsed());
        timed(&mut log, "ground.sync", 8, || ());
        let spans = log.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].trace_id, 7);
        assert_eq!(spans[2].parent, None);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(spans[1].end_ns - spans[1].start_ns >= 2_000_000);
    }

    #[test]
    fn disabled_log_keeps_nothing() {
        let mut log = SpanLog::disabled();
        log.open_scope("bench.replay", 0, Instant::now());
        let (v, _) = timed(&mut log, "x", 0, || 5);
        log.close_scope(Duration::ZERO);
        assert_eq!(v, 5);
        assert!(log.spans().is_empty() && !log.is_enabled());
    }

    #[test]
    fn timer_overhead_is_small_and_positive() {
        let ns = timer_overhead_ns();
        assert!(ns > 0.0 && ns < 50_000.0, "{ns}");
    }
}
