//! Causal-tracing acceptance test: one simulated mission with a flight
//! recorder wired through the ground config must produce, for a single
//! capture's [`TraceId`], events from the strategy, the ground service,
//! the codec, *and* the persistent refstore — the end-to-end causal
//! chain the recorder exists for. Also pins the Chrome-trace export:
//! every Begin has a matching End per track, and the JSON parses by
//! construction rules simple enough to check here (balanced braces,
//! event counts).
//!
//! The same mission pins the one-clock rule: each timed stage's span is
//! its only timer, so the report's `StageTimings`, the stage and
//! subsystem histograms, and the trace's Begin/End timestamps agree to
//! the nanosecond.

use earthplus::prelude::*;
use earthplus_cloud::{train_onboard_detector, TrainingConfig};
use earthplus_ground::GroundServiceConfig;
use earthplus_orbit::LinkModel;
use earthplus_scene::large_constellation;
use earthplus_telemetry::{names, MetricsRegistry, TraceEvent, TraceEventKind};
use std::collections::HashMap;
use std::path::PathBuf;

fn test_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("earthplus-core-trace-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A traced, metered Earth+ mission on the persistent backend: the run's
/// report, its registry and its flight recorder.
fn traced_mission(tag: &str) -> (MissionReport, MetricsRegistry, FlightRecorder) {
    let root = test_dir(tag);
    let mut dataset = large_constellation(7, 256);
    dataset.duration_days = 15;
    dataset.satellite_count = 8;
    // No dataset-level cloud filter: every visit reaches the strategy, so
    // the trace stream holds repeat (non-guaranteed) captures with cache
    // lookups, plus on-board drops of the cloudiest images.
    dataset.capture_cloud_filter = None;
    let mut config = SimulationConfig::for_dataset(&dataset, 7);
    config.eval_from_day = 40;
    config.eval_days = 15;
    config.uplink = LinkModel::doves_uplink();
    let sim = MissionSimulator::from_dataset(&dataset, config);
    let detector = train_onboard_detector(&sim.scenes()[0], &TrainingConfig::default());
    let targets: Vec<_> = dataset
        .locations
        .iter()
        .flat_map(|l| l.bands.iter().map(|&b| (l.location, b)))
        .collect();

    let registry = MetricsRegistry::new();
    let recorder = FlightRecorder::new();
    recorder.register_metrics(&registry);
    let ground = GroundServiceConfig::default()
        .with_targets(targets)
        .with_persistence(&root)
        .with_telemetry(registry.sink())
        .with_tracing(recorder.sink());
    let mut strategy = EarthPlusStrategy::with_ground_config(
        EarthPlusConfig::paper().with_gamma(2.0),
        detector,
        ground,
    );
    let report = sim.run(&mut [&mut strategy]);
    drop(strategy);
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!(
        recorder.dropped_events(),
        0,
        "default rings must not overflow this mission"
    );
    (report, registry, recorder)
}

/// End − Begin (ns) of each `lane`/`name` span in `events`, in order
/// (spans of one name never nest).
fn span_ns<'a>(
    events: impl IntoIterator<Item = &'a TraceEvent>,
    lane: &str,
    name: &str,
) -> Vec<u64> {
    let mut begin = 0;
    let mut out = Vec::new();
    for e in events
        .into_iter()
        .filter(|e| e.lane == lane && e.name == name)
    {
        match e.kind {
            TraceEventKind::Begin => begin = e.ts_ns,
            TraceEventKind::End => out.push(e.ts_ns - begin),
            TraceEventKind::Instant => {}
        }
    }
    out
}

/// Report seconds back in the nanoseconds they were taken in.
fn ns(secs: f64) -> u64 {
    (secs * 1e9).round() as u64
}

#[test]
fn stage_times_trace_and_histograms_read_one_clock() {
    let (report, registry, recorder) = traced_mission("one-clock");
    let log = recorder.log();
    let (mut kept, mut patch_ns) = (0, 0);
    for c in report.records("earth+") {
        let events = log.events_for(c.trace);
        let cloud = span_ns(events.iter().copied(), "strategy", "cloud_detect");
        assert_eq!(cloud, vec![ns(c.timings.cloud_s)], "capture {}", c.trace);
        if c.dropped {
            continue;
        }
        kept += 1;
        for (name, secs) in [
            ("change_detect", c.timings.change_s),
            ("roi_encode", c.timings.encode_s),
        ] {
            let spans = span_ns(events.iter().copied(), "strategy", name);
            assert_eq!(spans.len(), c.band_bytes.len(), "{name} spans per band");
            assert_eq!(spans.iter().sum::<u64>(), ns(secs), "{name} of {}", c.trace);
        }
        patch_ns += span_ns(events.iter().copied(), "strategy", "ground.patch")
            .iter()
            .sum::<u64>();
    }
    assert!(kept > 0, "mission kept no capture");
    let snapshot = registry.snapshot();
    let patch = snapshot.histogram(names::STAGE_GROUND_PATCH_NS).unwrap();
    assert_eq!((patch.count, patch.sum), (kept, patch_ns));

    // Each histogram holds exactly the durations of its spans.
    for (hist, lane, name) in [
        (names::CODEC_ENCODE_EPC2_NS, "codec", "encode.epc2"),
        (names::GROUND_INGEST_NS, "ground", "ingest"),
        (names::REFSTORE_APPEND_NS, "refstore", "append"),
    ] {
        let spans = span_ns(&log.events, lane, name);
        let h = snapshot.histogram(hist).expect("histogram registered");
        assert!(!spans.is_empty(), "no {lane}/{name} spans");
        let traced = (spans.len() as u64, spans.iter().sum::<u64>());
        assert_eq!((h.count, h.sum), traced, "{hist} against its spans");
    }

    // The live stage histograms equal the rollup replayed from the
    // reports' seconds.
    let rollup = &report.telemetry("earth+").constellation;
    for (hist, replayed) in [
        (names::STAGE_CLOUD_NS, &rollup.cloud_ns),
        (names::STAGE_CHANGE_NS, &rollup.change_ns),
        (names::STAGE_ENCODE_NS, &rollup.encode_ns),
    ] {
        assert_eq!(snapshot.histogram(hist), Some(replayed), "{hist}");
    }
}

#[test]
fn one_capture_trace_spans_strategy_ground_codec_and_refstore() {
    let (report, _registry, recorder) = traced_mission("mission");

    // Every capture report carries a minted trace id.
    let captures = report.records("earth+");
    assert!(!captures.is_empty(), "mission produced no captures");
    assert!(
        captures.iter().all(|c| c.trace.is_some()),
        "tracing-enabled missions mint a TraceId per capture"
    );
    // Ids are unique per capture.
    let mut seen = std::collections::HashSet::new();
    for c in captures {
        assert!(seen.insert(c.trace), "duplicate trace id {}", c.trace);
    }

    // The day-windowed series and health verdicts rode along on the
    // telemetry rollup (the registry was wired, so the simulator
    // snapshotted every day boundary).
    let rollup = report.telemetry("earth+");
    let daily = rollup
        .daily
        .as_ref()
        .expect("registry-wired run has a daily series");
    assert!(
        daily.get("captures").is_some_and(|p| p.len() > 1),
        "per-day capture throughput should span multiple windows"
    );
    assert!(
        daily.get("encode_p90_ns").is_some(),
        "per-day encode p90 series missing"
    );
    assert!(!rollup.health.is_empty(), "health verdicts missing");

    let log = recorder.log();

    // Pick a kept capture whose reconstruction reached the reference pool
    // (cloud-free enough to ingest) and follow its id across subsystems.
    let mut best: Option<(&CaptureReport, Vec<&'static str>)> = None;
    for c in captures.iter().filter(|c| !c.dropped) {
        let lanes: Vec<&'static str> = {
            let mut lanes: Vec<&'static str> =
                log.events_for(c.trace).iter().map(|e| e.lane).collect();
            lanes.sort_unstable();
            lanes.dedup();
            lanes
        };
        if best.as_ref().is_none_or(|(_, b)| lanes.len() > b.len()) {
            best = Some((c, lanes));
        }
    }
    let (chosen, lanes) = best.expect("at least one kept capture");
    for lane in ["strategy", "codec", "ground", "refstore"] {
        assert!(
            lanes.contains(&lane),
            "capture {} should have {lane} events, saw {lanes:?}",
            chosen.trace
        );
    }

    // Every capture-stage event carries a real trace id (no event inside
    // a capture scope escapes attribution).
    for event in &log.events {
        if event.lane == "strategy" {
            assert!(
                event.trace.is_some(),
                "unattributed strategy event {event:?}"
            );
        }
    }

    // Begin/End events pair up per track (spans never straddle rings).
    let mut open: HashMap<_, i64> = HashMap::new();
    for event in &log.events {
        match event.kind {
            TraceEventKind::Begin => *open.entry(event.track).or_default() += 1,
            TraceEventKind::End => *open.entry(event.track).or_default() -= 1,
            TraceEventKind::Instant => {}
        }
    }
    for (track, n) in &open {
        assert_eq!(*n, 0, "unbalanced spans on {track}");
    }

    // The Chrome-trace export mentions all three subsystem processes and
    // holds one object per retained event plus metadata.
    let json = log.to_chrome_trace();
    assert!(
        json.starts_with('{') && json.trim_end().ends_with('}'),
        "not a JSON object"
    );
    assert!(json.contains("\"traceEvents\""));
    for ph in ["\"ph\":\"B\"", "\"ph\":\"E\"", "\"ph\":\"i\""] {
        assert!(json.contains(ph), "export misses {ph}");
    }
    let begins = json.matches("\"ph\":\"B\"").count();
    let ends = json.matches("\"ph\":\"E\"").count();
    assert_eq!(begins, ends, "export must keep B/E balanced");

    // The explain dump for the chosen capture walks the same chain.
    let explain = log.explain(chosen.trace);
    for lane in ["strategy", "ground", "refstore"] {
        assert!(explain.contains(lane), "explain misses {lane}:\n{explain}");
    }
}
