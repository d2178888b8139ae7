//! The hand-rolled tape (visits, cloud filter, per-satellite contact
//! cursors, pass sort) must not drift from the simulator it mirrors: at
//! smoke size, without a perturbation, replaying the tape through a
//! strategy yields the record streams `MissionSimulator::run` yields on
//! the same dataset and seed.

use earthplus::{EarthPlusConfig, EarthPlusStrategy, MissionSimulator, SimulationConfig};
use earthplus_benchmark::mission::{drive, spec, Kind};
use earthplus_benchmark::spans::SpanLog;
use earthplus_benchmark::tape::{self, MissionSpec, Perturbation};

/// Returns how many captures the replay kept.
fn assert_matches_simulator(spec: &MissionSpec) -> usize {
    let tape = tape::build(spec);
    assert!(
        tape.captures >= 10,
        "only {} captures on the tape",
        tape.captures
    );
    assert!(tape.windows > 0);

    let strategy = || {
        EarthPlusStrategy::new(
            EarthPlusConfig::paper(),
            tape.detector.clone(),
            tape.targets.clone(),
        )
    };
    let mut replayed = strategy();
    let driven = drive(
        &tape.events,
        tape.pixels_per_band,
        &mut replayed,
        &mut SpanLog::disabled(),
    );

    let config = SimulationConfig {
        eval_from_day: spec.from_day,
        eval_days: spec.days,
        ..SimulationConfig::for_dataset(&spec.dataset, spec.scenario_seed)
    };
    let simulator = MissionSimulator::from_dataset(&spec.dataset, config);
    let mut simulated = strategy();
    let report = simulator.run(&mut [&mut simulated]);

    assert_eq!(report.filtered_visits, tape.filtered_visits);
    let stream = |records: &[earthplus::CaptureReport]| -> Vec<(u64, u32, u32, bool, u64)> {
        records
            .iter()
            .map(|r| {
                (
                    r.day.to_bits(),
                    r.satellite.0,
                    r.location.0,
                    r.dropped,
                    r.downloaded_bytes,
                )
            })
            .collect()
    };
    assert_eq!(stream(&driven.captures), stream(report.records("earth+")));
    assert_eq!(driven.uplink, report.uplink["earth+"]);
    assert_eq!(driven.tally.failed, 0, "{:?}", driven.tally.failures);
    driven.captures.iter().filter(|r| !r.dropped).count()
}

#[test]
fn rich_tape_replays_like_the_simulator() {
    assert!(assert_matches_simulator(&spec(Kind::Rich, 5, None, true)) > 0);
}

#[test]
fn constellation_tape_replays_like_the_simulator() {
    assert!(assert_matches_simulator(&spec(Kind::Constellation, 9, None, true)) > 0);
}

#[test]
fn cloud_filter_is_applied_like_the_simulator() {
    let mut filtered = spec(Kind::Constellation, 3, None, true);
    filtered.dataset.capture_cloud_filter = Some(0.4);
    let unfiltered = tape::build(&spec(Kind::Constellation, 3, None, true));
    let tape = tape::build(&filtered);
    assert!(tape.filtered_visits > 0 && tape.captures < unfiltered.captures);
    assert_matches_simulator(&filtered);
}

#[test]
fn a_perturbation_keeps_the_schedule_and_changes_the_pixels() {
    let seeded = |seed| tape::build(&spec(Kind::Rich, 11, Some(Perturbation(seed)), true));
    let (plain, a, b) = (
        tape::build(&spec(Kind::Rich, 11, None, true)),
        seeded(1),
        seeded(2),
    );
    let schedule = |t: &tape::MissionTape| -> Vec<(u64, u32, u64)> {
        t.events
            .iter()
            .filter_map(|e| match e {
                tape::Event::Capture(c) => Some((
                    c.day.to_bits(),
                    c.location.0,
                    c.capture.cloud_fraction.to_bits(),
                )),
                tape::Event::Pass(_) => None,
            })
            .collect()
    };
    assert_eq!(schedule(&plain), schedule(&a));
    assert_eq!(schedule(&a), schedule(&b));
    assert_eq!((a.captures, a.windows), (b.captures, b.windows));
    let hashes = [tape::hash(&plain), tape::hash(&a), tape::hash(&b)];
    assert!(hashes[0] != hashes[1] && hashes[1] != hashes[2] && hashes[0] != hashes[2]);

    // The perturbation is sensor-noise sized: a band moves by about the
    // scene model's sigma, not by a change a detector would flag.
    let first = |t: &tape::MissionTape| {
        t.events.iter().find_map(|e| match e {
            tape::Event::Capture(c) => Some(c.capture.image.iter().next().unwrap().1.mean()),
            tape::Event::Pass(_) => None,
        })
    };
    assert!((first(&plain).unwrap() - first(&a).unwrap()).abs() < 1e-3);
}
