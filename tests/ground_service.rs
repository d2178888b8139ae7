//! Integration tests for the ground-segment reference service: the delta
//! round-trip through the on-board cache, the documented uplink cost
//! model, and constellation-wide pass scheduling under constricted
//! contact budgets.

use earthplus::{
    compute_delta, ContactWindow, GroundService, GroundServiceConfig, OnboardReferenceCache,
    ReferenceImage, ReferencePool,
};
use earthplus_ground::FaultPlan;
use earthplus_orbit::SatelliteId;
use earthplus_raster::{Band, LocationId, PlanetBand, Raster};
use earthplus_telemetry::{FlightRecorder, TraceEventKind, TraceValue};

/// One satellite's contact window, as a pass of its own.
fn window(satellite: SatelliteId, day: f64, budget_bytes: u64) -> [ContactWindow; 1] {
    [ContactWindow {
        satellite,
        day,
        budget_bytes,
    }]
}

fn red() -> Band {
    Band::Planet(PlanetBand::Red)
}

/// A reference with a deterministic but non-trivial pattern.
fn patterned_ref(location: u32, day: f64, pattern: impl Fn(usize) -> f32) -> ReferenceImage {
    let mut lowres = Raster::new(12, 12);
    for i in 0..lowres.len() {
        lowres.as_mut_slice()[i] = pattern(i);
    }
    ReferenceImage {
        location: LocationId(location),
        band: red(),
        captured_day: day,
        lowres,
        downsample: 51,
        full_width: 612,
        full_height: 612,
    }
}

// ---------------------------------------------------------------------
// Delta round-trip: compute_delta → apply reproduces the pool reference.
// ---------------------------------------------------------------------

#[test]
fn delta_round_trip_is_bit_exact_at_theta_zero() {
    let mut pool = ReferencePool::new();
    let mut cache = OnboardReferenceCache::new();
    let old = patterned_ref(0, 3.0, |i| (i % 9) as f32 / 9.0);
    let new = patterned_ref(0, 8.0, |i| {
        if i % 4 == 0 {
            0.9 - (i % 11) as f32 / 37.0
        } else {
            (i % 9) as f32 / 9.0
        }
    });
    cache.install(old);
    pool.offer(new);

    let pool_ref = pool.get(LocationId(0), red()).unwrap();
    let delta = compute_delta(pool_ref, cache.get(LocationId(0), red()), 0.0).unwrap();
    assert!(
        delta.full.is_none(),
        "warm cache must get a delta, not a full resend"
    );
    cache.apply_delta(
        delta.location,
        delta.band,
        delta.day,
        &delta.pixels,
        delta.full.as_ref(),
    );

    let reproduced = cache.get(LocationId(0), red()).unwrap();
    assert_eq!(reproduced.captured_day, pool_ref.captured_day);
    // Bit-exact: every sample identical, not merely within tolerance.
    assert_eq!(
        reproduced.lowres.as_slice(),
        pool_ref.lowres.as_slice(),
        "delta apply must reproduce the pool reference exactly"
    );
}

#[test]
fn cold_cache_full_install_round_trip_is_bit_exact() {
    let mut pool = ReferencePool::new();
    let mut cache = OnboardReferenceCache::new();
    pool.offer(patterned_ref(0, 5.0, |i| (i % 13) as f32 / 13.0));

    let pool_ref = pool.get(LocationId(0), red()).unwrap();
    let delta = compute_delta(pool_ref, None, 0.01).unwrap();
    assert!(
        delta.full.is_some(),
        "cold cache must receive the full reference"
    );
    cache.apply_delta(
        delta.location,
        delta.band,
        delta.day,
        &delta.pixels,
        delta.full.as_ref(),
    );
    assert_eq!(
        cache.get(LocationId(0), red()).unwrap().lowres.as_slice(),
        pool_ref.lowres.as_slice()
    );
}

// ---------------------------------------------------------------------
// Cost model: header + presence bitmap + 2 bytes per changed pixel;
// full installs at 12-bit depth.
// ---------------------------------------------------------------------

#[test]
fn delta_size_matches_bitmap_plus_two_bytes_per_pixel() {
    let old = patterned_ref(0, 3.0, |_| 0.2);
    let changed = 7usize;
    let new = patterned_ref(0, 8.0, move |i| if i < changed { 0.8 } else { 0.2 });
    let delta = compute_delta(&new, Some(&old), 0.01).unwrap();
    assert_eq!(delta.pixels.len(), changed);
    let total_pixels = new.lowres.len() as u64;
    let header = 16u64;
    let bitmap = total_pixels.div_ceil(8);
    assert_eq!(
        delta.size_bytes(),
        header + bitmap + changed as u64 * 2,
        "documented model: 16 B header + presence bitmap + 2 B per changed pixel"
    );
}

#[test]
fn full_install_size_matches_12bit_model() {
    let new = patterned_ref(0, 8.0, |i| (i % 5) as f32 / 5.0);
    let delta = compute_delta(&new, None, 0.01).unwrap();
    let px = new.lowres.len() as u64;
    assert_eq!(delta.size_bytes(), 16 + (px * 12).div_ceil(8));
}

// ---------------------------------------------------------------------
// Constellation scheduling through the GroundService facade.
// ---------------------------------------------------------------------

#[test]
fn constricted_pass_serves_stalest_first_and_stays_within_budget() {
    let service = GroundService::new(GroundServiceConfig::default().with_theta(0.01));
    // Seed three locations at day 20.
    for loc in 0..3u32 {
        service.ingest_downlink(patterned_ref(loc, 20.0, |i| 0.9 - (i % 3) as f32 / 10.0));
    }
    // Warm satellite 0's cache at very different ages via a generous
    // first pass, then age them asymmetrically.
    let sat = SatelliteId(0);
    let first = service.plan_pass(&window(sat, 20.1, u64::MAX)).remove(0);
    assert_eq!(first.deltas_sent, 3);

    // Ground gets fresher captures for all three; location 2 was
    // refreshed most recently on board (day 27 ingest below makes its
    // staleness smallest when the ground re-captures at day 30).
    service.ingest_downlink(patterned_ref(2, 27.0, |i| 0.5 + (i % 4) as f32 / 20.0));
    let second = service.plan_pass(&window(sat, 27.1, u64::MAX)).remove(0);
    assert_eq!(second.deltas_sent, 1);
    for loc in 0..3u32 {
        service.ingest_downlink(patterned_ref(loc, 30.0, |i| 0.1 + (i % 6) as f32 / 12.0));
    }

    // Now satellite 0's cache: locations 0 and 1 at day 20 (staleness
    // 10 days), location 2 at day 27 (staleness 3 days). Budget fits
    // exactly one update: a day-20 location must win.
    let one = {
        let pool_ref = service.store().get(LocationId(0), red()).unwrap();
        let cached = service.serve_reference(sat, LocationId(0), red()).unwrap();
        compute_delta(&pool_ref, Some(&cached), 0.01)
            .unwrap()
            .size_bytes()
    };
    let before = service.stats();
    let reports = service.plan_pass(&window(sat, 30.1, one));
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].deltas_sent, 1);
    assert_eq!(reports[0].deltas_skipped, 2);
    assert!(reports[0].bytes_used <= reports[0].bytes_budget);
    // The service-level snapshot delta isolates exactly this pass,
    // cumulative history (the two earlier generous contacts) subtracted.
    let pass = service.stats().delta(&before);
    assert_eq!(pass.deltas_sent, 1);
    assert_eq!(pass.deltas_skipped, 2);
    assert_eq!(pass.uplink_bytes_sent, reports[0].bytes_used);
    assert_eq!(pass.ingest_accepted, 0, "planning ingests nothing");

    // The winner is one of the two 10-day-stale locations; location 2
    // (only 3 days stale) must have been outranked and is served stale.
    let day0 = service
        .serve_reference(sat, LocationId(0), red())
        .unwrap()
        .captured_day;
    let day1 = service
        .serve_reference(sat, LocationId(1), red())
        .unwrap()
        .captured_day;
    let day2 = service
        .serve_reference(sat, LocationId(2), red())
        .unwrap()
        .captured_day;
    assert_eq!(
        day2, 27.0,
        "least-stale location must be skipped and served stale"
    );
    assert!(
        (day0 == 30.0) ^ (day1 == 30.0),
        "exactly one of the stalest locations wins the budget (days: {day0}, {day1})"
    );
}

#[test]
fn skipped_locations_remain_served_stale_from_cache() {
    let service = GroundService::new(GroundServiceConfig::default());
    let sat = SatelliteId(3);
    service.ingest_downlink(patterned_ref(0, 10.0, |_| 0.4));
    service.plan_pass(&window(sat, 10.5, u64::MAX));

    // Fresher ground state, but an outage contact (zero budget).
    service.ingest_downlink(patterned_ref(0, 15.0, |_| 0.8));
    let report = service.plan_pass(&window(sat, 15.5, 0)).remove(0);
    assert_eq!(report.deltas_sent, 0);
    assert_eq!(report.deltas_skipped, 1);
    // The satellite still serves the stale day-10 reference.
    let served = service.serve_reference(sat, LocationId(0), red()).unwrap();
    assert_eq!(served.captured_day, 10.0);
    let stats = service.stats();
    assert_eq!(stats.deltas_skipped, 1);
    assert_eq!(stats.cache.hits, 1);
}

#[test]
fn pass_totals_never_exceed_per_contact_budgets() {
    let service = GroundService::new(GroundServiceConfig::default());
    for loc in 0..24u32 {
        service.ingest_downlink(patterned_ref(loc, 5.0, |i| (i % 7) as f32 / 7.0));
    }
    // A pass of several tight windows across three satellites.
    let windows: Vec<ContactWindow> = (0..6)
        .map(|k| ContactWindow {
            satellite: SatelliteId(k % 3),
            day: 6.0 + k as f64 / 10.0,
            budget_bytes: 700,
        })
        .collect();
    let reports = service.plan_pass(&windows);
    assert_eq!(reports.len(), windows.len());
    for (report, window) in reports.iter().zip(&windows) {
        assert_eq!(report.bytes_budget, window.budget_bytes);
        assert!(
            report.bytes_used <= report.bytes_budget,
            "contact overspent: {} > {}",
            report.bytes_used,
            report.bytes_budget
        );
    }
    // Something was scheduled and something was skipped (24 full installs
    // cannot fit 700-byte windows all at once).
    let sent: usize = reports.iter().map(|r| r.deltas_sent).sum();
    let skipped: usize = reports.iter().map(|r| r.deltas_skipped).sum();
    assert!(sent > 0);
    assert!(skipped > 0);
}

// ---------------------------------------------------------------------
// The plan_pass trace span's budget covers the whole pass.
// ---------------------------------------------------------------------

/// The `budget_bytes` argument of every `plan_pass` span the recorder
/// holds, in record order.
fn plan_pass_budgets(recorder: &FlightRecorder) -> Vec<TraceValue> {
    recorder
        .log()
        .events
        .into_iter()
        .filter(|e| e.name == "plan_pass" && e.kind == TraceEventKind::End)
        .flat_map(|e| e.args.into_iter().filter(|(key, _)| *key == "budget_bytes"))
        .map(|(_, value)| value)
        .collect()
}

/// One pass of two windows, on satellites 0 and 1.
fn two_windows(a: u64, b: u64) -> Vec<ContactWindow> {
    [
        window(SatelliteId(0), 6.0, a),
        window(SatelliteId(1), 6.0, b),
    ]
    .concat()
}

#[test]
fn plan_pass_span_records_the_pass_total_budget() {
    let recorder = FlightRecorder::new();
    let service = GroundService::new(GroundServiceConfig::default().with_tracing(recorder.sink()));
    service.ingest_downlink(patterned_ref(0, 5.0, |i| (i % 7) as f32 / 7.0));
    service.plan_pass(&two_windows(700, 1300));
    // Unbounded windows saturate instead of overflowing.
    service.plan_pass(&two_windows(u64::MAX, u64::MAX));
    assert_eq!(
        plan_pass_budgets(&recorder),
        [TraceValue::U64(2000), TraceValue::U64(u64::MAX)]
    );
}

#[test]
fn plan_pass_span_budget_is_the_clamped_total_under_interrupts() {
    let recorder = FlightRecorder::new();
    let service = GroundService::new(
        GroundServiceConfig::default()
            .with_tracing(recorder.sink())
            .with_fault_plan(FaultPlan {
                seed: 7,
                uplink_interrupt_probability: 1.0,
                uplink_interrupt_fraction: 0.5,
                ..FaultPlan::default()
            }),
    );
    service.ingest_downlink(patterned_ref(0, 5.0, |i| (i % 7) as f32 / 7.0));
    let reports = service.plan_pass(&two_windows(1000, 3000));
    assert_eq!(service.stats().interrupted_windows, 2);
    let clamped: u64 = reports.iter().map(|r| r.bytes_budget).sum();
    assert_eq!(clamped, 500 + 1500);
    assert_eq!(plan_pass_budgets(&recorder), [TraceValue::U64(clamped)]);
}
