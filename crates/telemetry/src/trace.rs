//! Causal trace events: per-capture identifiers, typed span/instant
//! events, and the Chrome trace-event ("Perfetto JSON") exporter.
//!
//! A [`TraceId`] is minted once per capture and rides along every event
//! that capture touches — on-board stages, downlink scheduling, ground
//! ingest, storage appends — so one capture can be followed across
//! subsystems after the fact. Events are collected by the flight
//! recorder ([`crate::FlightRecorder`]) into per-track ring buffers and
//! exported as a [`TraceLog`], which renders either as Chrome
//! trace-event JSON ([`TraceLog::to_chrome_trace`], loadable in
//! `chrome://tracing` or <https://ui.perfetto.dev>) or as an aligned
//! "explain this capture" table ([`TraceLog::explain`]).

use crate::export::json_escape;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Identifier of one traced capture, minted by
/// [`crate::TraceSink::mint`]. The zero id ([`TraceId::NONE`]) means
/// "untraced" and is what a disabled sink mints.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The null trace: events carrying it belong to no capture.
    pub const NONE: TraceId = TraceId(0);

    /// Whether this is a real (minted) trace id.
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_some() {
            write!(f, "t{}", self.0)
        } else {
            f.write_str("t-")
        }
    }
}

/// The timeline a trace event lands on: one ring buffer (and one
/// Perfetto "process") per satellite and per ground station.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceTrack {
    /// An on-board timeline, keyed by satellite id.
    Satellite(u32),
    /// A ground-segment timeline, keyed by station id (the workspace
    /// models one ground service → station 0).
    Station(u32),
}

impl TraceTrack {
    /// Packs the track into a `u64` for the recorder's ambient-context
    /// atomics (bit 32 distinguishes stations from satellites).
    pub(crate) fn encode(self) -> u64 {
        match self {
            TraceTrack::Satellite(id) => id as u64,
            TraceTrack::Station(id) => (1u64 << 32) | id as u64,
        }
    }

    /// Inverse of [`TraceTrack::encode`].
    pub(crate) fn decode(raw: u64) -> TraceTrack {
        if raw & (1 << 32) != 0 {
            TraceTrack::Station((raw & 0xFFFF_FFFF) as u32)
        } else {
            TraceTrack::Satellite(raw as u32)
        }
    }

    /// Perfetto process id: satellites are pids 1.., stations 10001...
    fn pid(self) -> u64 {
        match self {
            TraceTrack::Satellite(id) => id as u64 + 1,
            TraceTrack::Station(id) => id as u64 + 10_001,
        }
    }

    /// Perfetto process name.
    fn process_name(self) -> String {
        match self {
            TraceTrack::Satellite(id) => format!("satellite {id}"),
            TraceTrack::Station(id) => format!("ground station {id}"),
        }
    }
}

impl std::fmt::Display for TraceTrack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceTrack::Satellite(id) => write!(f, "sat{id}"),
            TraceTrack::Station(id) => write!(f, "station{id}"),
        }
    }
}

/// A typed event-argument value. Strings are escaped at export time, so
/// hostile values cannot break the JSON.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceValue {
    /// Unsigned integer (sizes, counts, ids).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (fractions, dB). Non-finite values export as `null`.
    F64(f64),
    /// Boolean (hit/miss, accepted/rejected).
    Bool(bool),
    /// Free-form text.
    Str(String),
}

impl TraceValue {
    /// Renders the value as a JSON fragment (string values escaped and
    /// quoted, non-finite floats as `null`).
    fn to_json(&self) -> String {
        match self {
            TraceValue::U64(v) => v.to_string(),
            TraceValue::I64(v) => v.to_string(),
            TraceValue::F64(v) if v.is_finite() => v.to_string(),
            TraceValue::F64(_) => "null".to_string(),
            TraceValue::Bool(v) => v.to_string(),
            TraceValue::Str(s) => format!("\"{}\"", json_escape(s)),
        }
    }
}

impl std::fmt::Display for TraceValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceValue::U64(v) => write!(f, "{v}"),
            TraceValue::I64(v) => write!(f, "{v}"),
            TraceValue::F64(v) => write!(f, "{v:.3}"),
            TraceValue::Bool(v) => write!(f, "{v}"),
            TraceValue::Str(s) => f.write_str(s),
        }
    }
}

impl From<u64> for TraceValue {
    fn from(v: u64) -> Self {
        TraceValue::U64(v)
    }
}
impl From<u32> for TraceValue {
    fn from(v: u32) -> Self {
        TraceValue::U64(v as u64)
    }
}
impl From<u8> for TraceValue {
    fn from(v: u8) -> Self {
        TraceValue::U64(v as u64)
    }
}
impl From<u16> for TraceValue {
    fn from(v: u16) -> Self {
        TraceValue::U64(v as u64)
    }
}
impl From<usize> for TraceValue {
    fn from(v: usize) -> Self {
        TraceValue::U64(v as u64)
    }
}
impl From<i64> for TraceValue {
    fn from(v: i64) -> Self {
        TraceValue::I64(v)
    }
}
impl From<f64> for TraceValue {
    fn from(v: f64) -> Self {
        TraceValue::F64(v)
    }
}
impl From<bool> for TraceValue {
    fn from(v: bool) -> Self {
        TraceValue::Bool(v)
    }
}
impl From<&str> for TraceValue {
    fn from(v: &str) -> Self {
        TraceValue::Str(v.to_string())
    }
}
impl From<String> for TraceValue {
    fn from(v: String) -> Self {
        TraceValue::Str(v)
    }
}

/// One named event argument: static key, typed value.
pub(crate) type TraceArg = (&'static str, TraceValue);

/// The phase of a trace event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraceEventKind {
    /// A span opens (Chrome phase `B`).
    Begin,
    /// A span closes (Chrome phase `E`); args accumulated over the span
    /// ride on this event.
    End,
    /// A point-in-time marker (Chrome phase `i`).
    Instant,
}

/// One recorded trace event.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Global record order across all tracks (monotonic).
    pub seq: u64,
    /// Nanoseconds since the recorder's epoch.
    pub ts_ns: u64,
    /// The capture this event belongs to ([`TraceId::NONE`] when the
    /// event happened outside any capture scope, e.g. pass planning).
    pub trace: TraceId,
    /// The timeline the event landed on.
    pub track: TraceTrack,
    /// The subsystem lane (Perfetto thread), e.g. `"strategy"`,
    /// `"ground"`, `"refstore"`, `"codec"`.
    pub lane: &'static str,
    /// The event name, e.g. `"stage.encode"`.
    pub name: &'static str,
    /// Begin / End / Instant.
    pub kind: TraceEventKind,
    /// Typed key/value arguments.
    pub args: Vec<TraceArg>,
}

/// An exported copy of the flight recorder's contents, ordered by
/// record sequence.
#[derive(Clone, Debug, Default)]
pub struct TraceLog {
    /// Every retained event, in global `seq` order.
    pub events: Vec<TraceEvent>,
    /// Events recorded over the recorder's lifetime (including ones the
    /// rings have since evicted).
    pub recorded_events: u64,
    /// Events evicted from full rings (oldest first).
    pub dropped_events: u64,
}

impl TraceLog {
    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The retained events carrying `trace`, in record order.
    pub fn events_for(&self, trace: TraceId) -> Vec<&TraceEvent> {
        self.events.iter().filter(|e| e.trace == trace).collect()
    }

    /// Distinct subsystem lanes present in the log, sorted.
    pub fn lanes(&self) -> Vec<&'static str> {
        let mut lanes: Vec<&'static str> = self.events.iter().map(|e| e.lane).collect();
        lanes.sort_unstable();
        lanes.dedup();
        lanes
    }

    /// Serializes the log as Chrome trace-event JSON (the "JSON array
    /// format" with a `traceEvents` wrapper) — load the file in
    /// `chrome://tracing` or <https://ui.perfetto.dev>. Tracks map to
    /// processes (satellites pids 1.., stations 10001..), subsystem
    /// lanes map to threads, and every event's args carry its trace id.
    pub fn to_chrome_trace(&self) -> String {
        // Stable pid/tid assignment: tracks sorted, lanes sorted within
        // each track.
        let mut lanes_by_track: BTreeMap<TraceTrack, Vec<&'static str>> = BTreeMap::new();
        for e in &self.events {
            let lanes = lanes_by_track.entry(e.track).or_default();
            if !lanes.contains(&e.lane) {
                lanes.push(e.lane);
            }
        }
        for lanes in lanes_by_track.values_mut() {
            lanes.sort_unstable();
        }
        let tid = |track: TraceTrack, lane: &'static str| -> u64 {
            lanes_by_track[&track]
                .iter()
                .position(|&l| l == lane)
                .unwrap_or(0) as u64
                + 1
        };

        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let push = |out: &mut String, first: &mut bool, ev: String| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push('\n');
            out.push_str(&ev);
        };
        for (&track, lanes) in &lanes_by_track {
            push(
                &mut out,
                &mut first,
                format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
                    track.pid(),
                    json_escape(&track.process_name()),
                ),
            );
            for (i, lane) in lanes.iter().enumerate() {
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
                        track.pid(),
                        i as u64 + 1,
                        json_escape(lane),
                    ),
                );
            }
        }
        for e in &self.events {
            let ph = match e.kind {
                TraceEventKind::Begin => "B",
                TraceEventKind::End => "E",
                TraceEventKind::Instant => "i",
            };
            let mut args = format!("\"trace\":{}", e.trace.0);
            for (k, v) in &e.args {
                let _ = write!(args, ",\"{}\":{}", json_escape(k), v.to_json());
            }
            let scope = if e.kind == TraceEventKind::Instant {
                ",\"s\":\"t\""
            } else {
                ""
            };
            push(
                &mut out,
                &mut first,
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{ph}\"{scope},\"ts\":{:.3},\"pid\":{},\"tid\":{},\"args\":{{{args}}}}}",
                    json_escape(e.name),
                    json_escape(e.lane),
                    e.ts_ns as f64 / 1e3,
                    e.track.pid(),
                    tid(e.track, e.lane),
                ),
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    /// Renders everything the log knows about one capture as an aligned
    /// table: per-event timestamp, span duration (begin/end pairs
    /// matched per track and lane), track, lane, name, and args.
    pub fn explain(&self, trace: TraceId) -> String {
        struct Row {
            ts_ns: u64,
            dur_ns: Option<u64>,
            track: String,
            lane: &'static str,
            name: &'static str,
            args: String,
        }
        let events = self.events_for(trace);
        let mut rows: Vec<Row> = Vec::new();
        // Unmatched Begin rows per (track, lane), as indices into `rows`.
        let mut open: BTreeMap<(TraceTrack, &'static str), Vec<usize>> = BTreeMap::new();
        let render_args = |args: &[TraceArg]| -> String {
            let mut s = String::new();
            for (k, v) in args {
                if !s.is_empty() {
                    s.push(' ');
                }
                let _ = write!(s, "{k}={v}");
            }
            s
        };
        for e in &events {
            match e.kind {
                TraceEventKind::Begin => {
                    rows.push(Row {
                        ts_ns: e.ts_ns,
                        dur_ns: None,
                        track: e.track.to_string(),
                        lane: e.lane,
                        name: e.name,
                        args: render_args(&e.args),
                    });
                    open.entry((e.track, e.lane))
                        .or_default()
                        .push(rows.len() - 1);
                }
                TraceEventKind::End => {
                    if let Some(idx) = open.entry((e.track, e.lane)).or_default().pop() {
                        rows[idx].dur_ns = Some(e.ts_ns.saturating_sub(rows[idx].ts_ns));
                        let end_args = render_args(&e.args);
                        if !end_args.is_empty() {
                            if !rows[idx].args.is_empty() {
                                rows[idx].args.push(' ');
                            }
                            rows[idx].args.push_str(&end_args);
                        }
                    }
                }
                TraceEventKind::Instant => rows.push(Row {
                    ts_ns: e.ts_ns,
                    dur_ns: None,
                    track: e.track.to_string(),
                    lane: e.lane,
                    name: e.name,
                    args: render_args(&e.args),
                }),
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "trace {trace} \u{b7} {} events", events.len());
        let _ = writeln!(
            out,
            "{:>12} {:>10} {:<10} {:<9} {:<24} args",
            "ts", "dur", "track", "lane", "event",
        );
        for r in rows {
            let dur = r
                .dur_ns
                .map_or_else(|| "-".to_string(), crate::export::humanize_ns);
            let _ = writeln!(
                out,
                "{:>12} {:>10} {:<10} {:<9} {:<24} {}",
                crate::export::humanize_ns(r.ts_ns),
                dur,
                r.track,
                r.lane,
                r.name,
                r.args,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::too_many_arguments)]
    fn event(
        seq: u64,
        ts_ns: u64,
        trace: u64,
        track: TraceTrack,
        lane: &'static str,
        name: &'static str,
        kind: TraceEventKind,
        args: Vec<TraceArg>,
    ) -> TraceEvent {
        TraceEvent {
            seq,
            ts_ns,
            trace: TraceId(trace),
            track,
            lane,
            name,
            kind,
            args,
        }
    }

    fn sample_log() -> TraceLog {
        TraceLog {
            events: vec![
                event(
                    0,
                    1_000,
                    1,
                    TraceTrack::Satellite(3),
                    "strategy",
                    "stage.encode",
                    TraceEventKind::Begin,
                    vec![],
                ),
                event(
                    1,
                    1_500,
                    1,
                    TraceTrack::Satellite(3),
                    "strategy",
                    "reference.lookup",
                    TraceEventKind::Instant,
                    vec![("hit", true.into()), ("age_days", 2.5f64.into())],
                ),
                event(
                    2,
                    9_000,
                    1,
                    TraceTrack::Satellite(3),
                    "strategy",
                    "stage.encode",
                    TraceEventKind::End,
                    vec![("bytes", 4096u64.into())],
                ),
                event(
                    3,
                    10_000,
                    1,
                    TraceTrack::Station(0),
                    "ground",
                    "ingest",
                    TraceEventKind::Begin,
                    vec![],
                ),
                event(
                    4,
                    12_000,
                    1,
                    TraceTrack::Station(0),
                    "ground",
                    "ingest",
                    TraceEventKind::End,
                    vec![],
                ),
            ],
            recorded_events: 5,
            dropped_events: 0,
        }
    }

    #[test]
    fn track_encoding_round_trips() {
        for track in [
            TraceTrack::Satellite(0),
            TraceTrack::Satellite(7),
            TraceTrack::Satellite(u32::MAX),
            TraceTrack::Station(0),
            TraceTrack::Station(41),
        ] {
            assert_eq!(TraceTrack::decode(track.encode()), track);
        }
    }

    #[test]
    fn chrome_trace_has_metadata_and_matched_phases() {
        let json = sample_log().to_chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"satellite 3\""));
        assert!(json.contains("\"ground station 0\""));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"trace\":1"));
        assert!(json.contains("\"bytes\":4096"));
        // Satellite 3 is pid 4, station 0 is pid 10001.
        assert!(json.contains("\"pid\":4,"));
        assert!(json.contains("\"pid\":10001,"));
        // ts is microseconds with three decimals: 1_000ns -> 1.000us.
        assert!(json.contains("\"ts\":1.000"), "json:\n{json}");
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 2);
    }

    #[test]
    fn hostile_names_and_args_are_escaped() {
        let log = TraceLog {
            events: vec![event(
                0,
                5,
                9,
                TraceTrack::Satellite(0),
                "strategy",
                "weird\"name\\here",
                TraceEventKind::Instant,
                vec![("note", TraceValue::Str("say \"hi\"\n\\done".into()))],
            )],
            recorded_events: 1,
            dropped_events: 0,
        };
        let json = log.to_chrome_trace();
        assert!(json.contains(r#"weird\"name\\here"#), "json:\n{json}");
        assert!(json.contains(r#"say \"hi\"\n\\done"#), "json:\n{json}");
        // The payload must not contain a raw (unescaped) quote inside a
        // string: every quote is either structural or escaped.
        assert!(!json.contains("weird\"name"));
    }

    #[test]
    fn non_finite_floats_export_as_null() {
        let log = TraceLog {
            events: vec![event(
                0,
                5,
                1,
                TraceTrack::Satellite(0),
                "strategy",
                "x",
                TraceEventKind::Instant,
                vec![("nan", f64::NAN.into()), ("ok", 1.5f64.into())],
            )],
            recorded_events: 1,
            dropped_events: 0,
        };
        let json = log.to_chrome_trace();
        assert!(json.contains("\"nan\":null"));
        assert!(json.contains("\"ok\":1.5"));
    }

    #[test]
    fn explain_matches_spans_and_shows_args() {
        let log = sample_log();
        let table = log.explain(TraceId(1));
        assert!(table.contains("trace t1"), "table:\n{table}");
        assert!(table.contains("stage.encode"), "table:\n{table}");
        // The encode span is 8_000ns = 8.0us.
        assert!(table.contains("8.0us"), "table:\n{table}");
        assert!(table.contains("hit=true"), "table:\n{table}");
        assert!(table.contains("bytes=4096"), "table:\n{table}");
        assert!(table.contains("sat3"), "table:\n{table}");
        assert!(table.contains("station0"), "table:\n{table}");
        // An unknown trace explains to an empty (header-only) table.
        let empty = log.explain(TraceId(77));
        assert!(empty.contains("0 events"));
    }

    #[test]
    fn events_for_and_lanes_filter() {
        let log = sample_log();
        assert_eq!(log.events_for(TraceId(1)).len(), 5);
        assert!(log.events_for(TraceId(2)).is_empty());
        assert_eq!(log.lanes(), vec!["ground", "strategy"]);
        assert!(!log.is_empty());
        assert_eq!(log.len(), 5);
    }
}
