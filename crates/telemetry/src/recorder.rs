//! The flight recorder: bounded per-track ring buffers of trace events,
//! and the [`TraceSink`] handle instrumented code holds.
//!
//! Mirrors the [`crate::TelemetrySink`] design: a *disabled* sink is a
//! `None` pointer, so a recording call on a hot path records nothing and
//! reads no clock; an *enabled* sink records into the recorder's rings
//! behind a short mutex hold. Each track (satellite or
//! station) gets its own bounded ring — when a ring is full the oldest
//! event is dropped and counted, so a misbehaving subsystem can flood
//! only its own timeline and memory stays bounded for arbitrarily long
//! missions (hence "flight recorder": it always holds the most recent
//! window of history).

use crate::metrics::{Counter, Histogram};
use crate::names;
use crate::registry::MetricsRegistry;
use crate::trace::{TraceArg, TraceEvent, TraceEventKind, TraceId, TraceLog, TraceTrack};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Default per-track ring capacity.
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// The shared state behind one recorder and all its sinks.
#[derive(Debug)]
struct RecorderShared {
    epoch: Instant,
    capacity: usize,
    next_trace: AtomicU64,
    next_seq: AtomicU64,
    /// Ambient capture scope: the trace id events default to when the
    /// call site does not name one. Zero = no capture in scope.
    current_trace: AtomicU64,
    /// Ambient track (encoded via [`TraceTrack::encode`]).
    current_track: AtomicU64,
    recorded: Counter,
    dropped: Counter,
    tracks: Mutex<HashMap<TraceTrack, VecDeque<TraceEvent>>>,
}

impl RecorderShared {
    /// An event of `kind` on `track` (the ambient one when `None`), under
    /// the ambient trace.
    fn event(
        &self,
        track: Option<TraceTrack>,
        lane: &'static str,
        name: &'static str,
        kind: TraceEventKind,
    ) -> TraceEvent {
        TraceEvent {
            seq: 0,
            ts_ns: 0,
            trace: TraceId(self.current_trace.load(Ordering::Relaxed)),
            track: track
                .unwrap_or_else(|| TraceTrack::decode(self.current_track.load(Ordering::Relaxed))),
            lane,
            name,
            kind,
            args: Vec::new(),
        }
    }

    /// Stamps `event` at `at` and appends it to its track's ring.
    fn push(&self, at: Instant, mut event: TraceEvent) {
        event.seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        event.ts_ns =
            u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX);
        let mut tracks = self.tracks.lock().expect("flight recorder poisoned");
        let ring = tracks.entry(event.track).or_default();
        if ring.len() >= self.capacity {
            ring.pop_front();
            self.dropped.inc();
        }
        ring.push_back(event);
        self.recorded.inc();
    }
}

/// The owner of the rings: create one per mission, hand
/// [`FlightRecorder::sink`] handles to subsystems, and export the
/// retained history with [`FlightRecorder::log`] at the end.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    shared: Arc<RecorderShared>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl FlightRecorder {
    /// A recorder with the default per-track ring capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A recorder whose rings each retain at most `per_track_capacity`
    /// events (minimum 1), dropping oldest-first beyond that.
    pub fn with_capacity(per_track_capacity: usize) -> Self {
        FlightRecorder {
            shared: Arc::new(RecorderShared {
                epoch: Instant::now(),
                capacity: per_track_capacity.max(1),
                next_trace: AtomicU64::new(1),
                next_seq: AtomicU64::new(0),
                current_trace: AtomicU64::new(0),
                current_track: AtomicU64::new(TraceTrack::Station(0).encode()),
                recorded: Counter::live(),
                dropped: Counter::live(),
                tracks: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// An enabled sink recording into this recorder's rings.
    pub fn sink(&self) -> TraceSink {
        TraceSink(Some(self.shared.clone()))
    }

    /// Lists the recorder's lifetime counters (`trace.recorded`,
    /// `trace.dropped`) in `registry`, so recorder health shows up in
    /// metric snapshots next to everything else.
    pub fn register_metrics(&self, registry: &MetricsRegistry) {
        registry.adopt_counter(names::TRACE_RECORDED, &self.shared.recorded);
        registry.adopt_counter(names::TRACE_DROPPED, &self.shared.dropped);
    }

    /// Events recorded over the recorder's lifetime (retained or not).
    pub fn recorded_events(&self) -> u64 {
        self.shared.recorded.value()
    }

    /// Events evicted from full rings.
    pub fn dropped_events(&self) -> u64 {
        self.shared.dropped.value()
    }

    /// A copy of everything the rings currently retain, merged across
    /// tracks into global record order.
    pub fn log(&self) -> TraceLog {
        let tracks = self.shared.tracks.lock().expect("flight recorder poisoned");
        let mut events: Vec<TraceEvent> = tracks.values().flatten().cloned().collect();
        drop(tracks);
        events.sort_by_key(|e| e.seq);
        TraceLog {
            events,
            recorded_events: self.recorded_events(),
            dropped_events: self.dropped_events(),
        }
    }
}

/// The handle instrumented code holds: either disabled (the default —
/// nothing is recorded and no clock is read) or recording into a
/// [`FlightRecorder`].
///
/// The *ambient capture scope* ([`TraceSink::scope`]) carries the
/// current [`TraceId`] and [`TraceTrack`] across subsystem boundaries
/// without threading them through every signature: the strategy opens a
/// scope per capture, and ground/refstore instrumentation called inside
/// it picks the ids up via [`TraceSink::current`]. The scope is stored
/// on the recorder itself (the mission loop drives captures one at a
/// time); concurrent captures on distinct recorders are fine, and
/// worker threads that must not inherit a scope should use the
/// `*_on`/explicit-trace variants.
#[derive(Clone, Debug, Default)]
pub struct TraceSink(Option<Arc<RecorderShared>>);

impl TraceSink {
    /// The no-op sink.
    pub fn disabled() -> Self {
        TraceSink(None)
    }

    /// Whether events recorded through this sink are kept.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Mints a fresh capture id ([`TraceId::NONE`] when disabled).
    pub fn mint(&self) -> TraceId {
        match &self.0 {
            Some(s) => TraceId(s.next_trace.fetch_add(1, Ordering::Relaxed)),
            None => TraceId::NONE,
        }
    }

    /// The trace id of the capture currently in scope
    /// ([`TraceId::NONE`] when disabled or outside any scope).
    pub fn current(&self) -> TraceId {
        match &self.0 {
            Some(s) => TraceId(s.current_trace.load(Ordering::Relaxed)),
            None => TraceId::NONE,
        }
    }

    /// The track currently in scope (station 0 when none was set).
    pub fn current_track(&self) -> TraceTrack {
        match &self.0 {
            Some(s) => TraceTrack::decode(s.current_track.load(Ordering::Relaxed)),
            None => TraceTrack::Station(0),
        }
    }

    /// Enters a capture scope: until the returned guard drops, events
    /// recorded without an explicit trace/track default to these. Scopes
    /// nest (the guard restores the previous scope).
    pub fn scope(&self, trace: TraceId, track: TraceTrack) -> TraceScope {
        let prev = self.0.as_ref().map(|s| {
            let prev_trace = s.current_trace.swap(trace.0, Ordering::Relaxed);
            let prev_track = s.current_track.swap(track.encode(), Ordering::Relaxed);
            (prev_trace, prev_track)
        });
        TraceScope {
            sink: self.clone(),
            prev,
        }
    }

    /// Opens a span on the ambient track/trace (see [`TraceSink::scope`]).
    #[inline]
    pub fn span(&self, lane: &'static str, name: &'static str) -> TraceSpan {
        self.span_inner(None, lane, name)
    }

    /// Opens a span on an explicit track, with the ambient trace.
    #[inline]
    pub fn span_on(&self, track: TraceTrack, lane: &'static str, name: &'static str) -> TraceSpan {
        self.span_inner(Some(track), lane, name)
    }

    fn span_inner(
        &self,
        track: Option<TraceTrack>,
        lane: &'static str,
        name: &'static str,
    ) -> TraceSpan {
        let Some(shared) = &self.0 else {
            return TraceSpan {
                end: None,
                start: None,
                hist: Histogram::disabled(),
            };
        };
        let start = Instant::now();
        let begin = shared.event(track, lane, name, TraceEventKind::Begin);
        let end = TraceEvent {
            kind: TraceEventKind::End,
            ..begin.clone()
        };
        shared.push(start, begin);
        TraceSpan {
            end: Some((shared.clone(), end)),
            start: Some(start),
            hist: Histogram::disabled(),
        }
    }

    /// Records a span some other thread already timed: a Begin event
    /// stamped `start` and an End event stamped `end` carrying `args`, on
    /// the ambient track/trace, pushed back to back. Work fanned out over
    /// worker threads commits its spans this way from the calling thread,
    /// in a fixed order, so spans of one name still pair Begin/End in
    /// record order. Reads no clock; `args` are only cloned when the sink
    /// is enabled.
    pub fn record_span(
        &self,
        lane: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
        args: &[TraceArg],
    ) {
        let Some(shared) = &self.0 else { return };
        let begin = shared.event(None, lane, name, TraceEventKind::Begin);
        let mut end_event = TraceEvent {
            kind: TraceEventKind::End,
            ..begin.clone()
        };
        end_event.args = args.to_vec();
        shared.push(start, begin);
        shared.push(end, end_event);
    }

    /// Records an instant event on the ambient track/trace. `args` are
    /// only cloned when the sink is enabled.
    #[inline]
    pub fn instant(&self, lane: &'static str, name: &'static str, args: &[TraceArg]) {
        self.instant_inner(None, lane, name, args);
    }

    /// Records an instant event on an explicit track.
    #[inline]
    pub fn instant_on(
        &self,
        track: TraceTrack,
        lane: &'static str,
        name: &'static str,
        args: &[TraceArg],
    ) {
        self.instant_inner(Some(track), lane, name, args);
    }

    fn instant_inner(
        &self,
        track: Option<TraceTrack>,
        lane: &'static str,
        name: &'static str,
        args: &[TraceArg],
    ) {
        let Some(shared) = &self.0 else { return };
        let mut event = shared.event(track, lane, name, TraceEventKind::Instant);
        event.args = args.to_vec();
        shared.push(Instant::now(), event);
    }
}

/// RAII guard of one capture scope; restores the previous scope on drop.
#[derive(Debug)]
pub struct TraceScope {
    sink: TraceSink,
    prev: Option<(u64, u64)>,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        if let (Some(shared), Some((prev_trace, prev_track))) = (&self.sink.0, self.prev) {
            shared.current_trace.store(prev_trace, Ordering::Relaxed);
            shared.current_track.store(prev_track, Ordering::Relaxed);
        }
    }
}

/// An open trace span: records a Begin event when opened and an End
/// event (carrying any [`TraceSpan::arg`]s accumulated along the way)
/// when it closes, on drop or at [`TraceSpan::finish`].
///
/// The span is also the stage timer. It reads the clock once when it
/// opens and once when it closes, and only when something consumes the
/// time: an enabled recorder, an enabled histogram attached with
/// [`TraceSpan::record_into`], or a caller that opened it
/// [`TraceSpan::timed`]. That one pair of readings stamps both events,
/// feeds the histogram, and is what `finish` returns.
#[derive(Debug)]
pub struct TraceSpan {
    /// The recorder and the End event it receives (`None` when disabled).
    end: Option<(Arc<RecorderShared>, TraceEvent)>,
    /// When the span opened; `None` while nothing consumes its time.
    start: Option<Instant>,
    hist: Histogram,
}

impl TraceSpan {
    /// Attaches a typed argument; it rides on the span's End event.
    #[inline]
    pub fn arg(&mut self, key: &'static str, value: impl Into<crate::trace::TraceValue>) {
        if let Some((_, end)) = &mut self.end {
            end.args.push((key, value.into()));
        }
    }

    /// Also records the elapsed nanoseconds into `hist` (an `Arc` clone,
    /// so no borrow of its owner) when the span closes. An enabled
    /// histogram starts the clock even with the recorder off.
    #[inline]
    pub fn record_into(mut self, hist: &Histogram) -> Self {
        if hist.enabled() {
            self.start.get_or_insert_with(Instant::now);
            self.hist = hist.clone();
        }
        self
    }

    /// Starts the clock whatever else consumes the span, so
    /// [`TraceSpan::finish`] returns the elapsed time.
    #[inline]
    pub fn timed(mut self) -> Self {
        self.start.get_or_insert_with(Instant::now);
        self
    }

    /// Time since the span opened (zero when it reads no clock).
    pub fn elapsed(&self) -> Duration {
        self.start.map_or(Duration::ZERO, |start| start.elapsed())
    }

    /// Closes the span and returns its elapsed time: the interval between
    /// its Begin and End timestamps, and what its histogram records. Zero
    /// when the span read no clock.
    pub fn finish(mut self) -> Duration {
        self.close()
    }

    fn close(&mut self) -> Duration {
        let Some(start) = self.start.take() else {
            return Duration::ZERO;
        };
        let now = Instant::now();
        if let Some((shared, end)) = self.end.take() {
            shared.push(now, end);
        }
        let elapsed = now - start;
        self.hist.record_duration(elapsed);
        elapsed
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_is_inert() {
        let sink = TraceSink::disabled();
        assert!(!sink.enabled());
        assert_eq!(sink.mint(), TraceId::NONE);
        assert_eq!(sink.current(), TraceId::NONE);
        let mut span = sink.span("strategy", "stage.encode");
        span.arg("bytes", 9u64);
        drop(span);
        sink.instant("strategy", "x", &[("k", 1u64.into())]);
    }

    #[test]
    fn disabled_span_never_starts_the_clock() {
        let hist = Histogram::disabled();
        let span = TraceSink::disabled().span("s", "a").record_into(&hist);
        assert!(span.start.is_none());
        assert_eq!(span.finish(), Duration::ZERO);
        assert_eq!(hist.snapshot().count, 0);
        // A caller that takes the time starts it.
        assert!(TraceSink::disabled().span("s", "a").timed().start.is_some());
    }

    #[test]
    fn span_records_once_on_drop() {
        let hist = Histogram::live();
        drop(TraceSink::disabled().span("s", "a").record_into(&hist));
        assert_eq!(hist.snapshot().count, 1);
    }

    #[test]
    fn one_clock_pair_stamps_events_feeds_histogram_and_returns() {
        let rec = FlightRecorder::new();
        let hist = Histogram::live();
        let span = rec.sink().span("s", "a").record_into(&hist);
        let elapsed = span.finish().as_nanos() as u64;
        let log = rec.log();
        assert_eq!(log.events[1].ts_ns - log.events[0].ts_ns, elapsed);
        assert_eq!((hist.snapshot().count, hist.snapshot().sum), (1, elapsed));
    }

    #[test]
    fn recorded_span_pairs_and_keeps_its_stamps() {
        let rec = FlightRecorder::new();
        let sink = rec.sink();
        let trace = sink.mint();
        let _scope = sink.scope(trace, TraceTrack::Satellite(4));
        let start = Instant::now();
        let end = start + Duration::from_nanos(1500);
        sink.record_span("codec", "encode.epc2", start, end, &[("k", 7u64.into())]);
        TraceSink::disabled().record_span("codec", "x", start, end, &[]);
        let log = rec.log();
        assert_eq!(log.len(), 2);
        let (b, e) = (&log.events[0], &log.events[1]);
        assert_eq!(
            (b.kind, e.kind),
            (TraceEventKind::Begin, TraceEventKind::End)
        );
        assert_eq!(e.ts_ns - b.ts_ns, 1500);
        assert_eq!((b.trace, e.track), (trace, TraceTrack::Satellite(4)));
        assert!(b.args.is_empty());
        assert_eq!(e.args.len(), 1);
    }

    #[test]
    fn mint_is_monotonic_and_nonzero() {
        let rec = FlightRecorder::new();
        let sink = rec.sink();
        let a = sink.mint();
        let b = sink.mint();
        assert!(a.is_some() && b.is_some());
        assert!(b.0 > a.0);
    }

    #[test]
    fn spans_and_instants_land_on_their_tracks() {
        let rec = FlightRecorder::new();
        let sink = rec.sink();
        let trace = sink.mint();
        {
            let _scope = sink.scope(trace, TraceTrack::Satellite(2));
            let mut span = sink.span("strategy", "stage.cloud");
            span.arg("fraction", 0.25f64);
            drop(span);
            sink.instant_on(
                TraceTrack::Station(0),
                "ground",
                "ingest.decision",
                &[("accepted", true.into())],
            );
        }
        // Outside the scope events fall back to the untraced default.
        sink.instant("ground", "plan_pass", &[]);
        let log = rec.log();
        assert_eq!(log.len(), 4);
        let for_trace = log.events_for(trace);
        assert_eq!(for_trace.len(), 3);
        assert_eq!(for_trace[0].kind, TraceEventKind::Begin);
        assert_eq!(for_trace[0].track, TraceTrack::Satellite(2));
        assert_eq!(for_trace[1].kind, TraceEventKind::End);
        assert_eq!(for_trace[1].args.len(), 1);
        assert_eq!(for_trace[2].track, TraceTrack::Station(0));
        let untraced = log.events_for(TraceId::NONE);
        assert_eq!(untraced.len(), 1);
        assert_eq!(untraced[0].name, "plan_pass");
        // Timestamps never run backwards in seq order.
        for pair in log.events.windows(2) {
            assert!(pair[1].ts_ns >= pair[0].ts_ns);
            assert!(pair[1].seq > pair[0].seq);
        }
    }

    #[test]
    fn scopes_nest_and_restore() {
        let rec = FlightRecorder::new();
        let sink = rec.sink();
        let outer = sink.mint();
        let inner = sink.mint();
        let _outer_scope = sink.scope(outer, TraceTrack::Satellite(1));
        assert_eq!(sink.current(), outer);
        {
            let _inner_scope = sink.scope(inner, TraceTrack::Station(0));
            assert_eq!(sink.current(), inner);
            assert_eq!(sink.current_track(), TraceTrack::Station(0));
        }
        assert_eq!(sink.current(), outer);
        assert_eq!(sink.current_track(), TraceTrack::Satellite(1));
    }

    #[test]
    fn full_ring_drops_oldest_first_and_counts() {
        let rec = FlightRecorder::with_capacity(3);
        let sink = rec.sink();
        for i in 0..5u64 {
            sink.instant_on(
                TraceTrack::Satellite(0),
                "strategy",
                "tick",
                &[("i", i.into())],
            );
        }
        let log = rec.log();
        assert_eq!(log.len(), 3);
        assert_eq!(log.recorded_events, 5);
        assert_eq!(log.dropped_events, 2);
        // The survivors are the three newest, still in order.
        let kept: Vec<u64> = log
            .events
            .iter()
            .map(|e| match e.args[0].1 {
                crate::trace::TraceValue::U64(v) => v,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, vec![2, 3, 4]);
    }

    #[test]
    fn rings_are_bounded_per_track() {
        let rec = FlightRecorder::with_capacity(2);
        let sink = rec.sink();
        for _ in 0..4 {
            sink.instant_on(TraceTrack::Satellite(0), "s", "a", &[]);
        }
        // A different track has its own ring: nothing dropped there.
        sink.instant_on(TraceTrack::Station(0), "g", "b", &[]);
        let log = rec.log();
        assert_eq!(log.dropped_events, 2);
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn register_metrics_exposes_lifetime_counters() {
        let rec = FlightRecorder::with_capacity(1);
        let registry = MetricsRegistry::new();
        rec.register_metrics(&registry);
        let sink = rec.sink();
        sink.instant_on(TraceTrack::Satellite(0), "s", "a", &[]);
        sink.instant_on(TraceTrack::Satellite(0), "s", "b", &[]);
        let snap = registry.snapshot();
        assert_eq!(snap.counter(names::TRACE_RECORDED), Some(2));
        assert_eq!(snap.counter(names::TRACE_DROPPED), Some(1));
    }
}
