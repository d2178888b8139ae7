//! Fault-tolerance properties of the replicated ground segment.
//!
//! Same conventions as `refstore_recovery.rs`: no network, so instead of
//! `proptest` the properties run over cases drawn from a deterministic
//! splitmix64 PRNG, and every fault is injected through the seeded
//! [`FaultPlan`] harness so a failing case replays exactly. The
//! properties:
//!
//! 1. **kill-station schedule identity** — a mission that loses a ground
//!    station mid-run (replicas promoted by replaying shipped segments)
//!    produces uplink schedules byte-identical to a run that never
//!    failed, and the archive stays clean;
//! 2. **transfer-fault delivery** — interrupted/corrupted/stalled
//!    segment ships retry (with resume from the verified partial) until
//!    every record reaches the replicas, so a failover loses nothing;
//! 3. **interrupted-pass carry-over** — a mid-pass uplink drop clamps
//!    the window's budget; whatever did not fit is sent in the next
//!    window rather than forgotten, and which windows drop does not
//!    depend on whether storage-side faults are on;
//! 4. **full fault-injected mission** — an end-to-end mission with an
//!    outage, replica-segment decay, and probabilistic transfer faults
//!    matches the clean mission's uplink schedule exactly, loses no
//!    references, keeps every compaction step inside its byte budget,
//!    and surfaces the recovery/failover/retry counters (plus their
//!    health rules) in the mission telemetry rollup.

use earthplus::prelude::*;
use earthplus_cloud::{train_onboard_detector, TrainingConfig};
use earthplus_ground::{
    shard_index, ContactWindow, FaultPlan, GroundService, GroundServiceConfig, OutageWindow,
    ReferenceImage, SegmentCorruption, ShipQueueConfig, StationSetConfig,
};
use earthplus_orbit::SatelliteId;
use earthplus_raster::{Band, LocationId, Raster};
use earthplus_refstore::{CompactionBudget, RefLogConfig};
use earthplus_scene::large_constellation;
use earthplus_telemetry::{names, HealthStatus, MetricsRegistry};
use std::path::PathBuf;

/// One satellite's contact window, as a pass of its own.
fn window(satellite: SatelliteId, day: f64, budget_bytes: u64) -> [ContactWindow; 1] {
    [ContactWindow {
        satellite,
        day,
        budget_bytes,
    }]
}

/// Deterministic splitmix64 PRNG.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in [lo, hi].
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() as usize) % (hi - lo + 1)
    }
}

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "earthplus-fault-tolerance-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn red() -> Band {
    Band::Planet(earthplus_raster::PlanetBand::Red)
}

fn reference(location: u32, day: f64, value: f32) -> ReferenceImage {
    let full = Raster::filled(64, 64, value);
    ReferenceImage::from_capture(LocationId(location), red(), day, &full, 8).unwrap()
}

/// The ship path the suite runs on: synchronous by default, or the
/// pipelined queue/worker path when `EARTHPLUS_SHIP_MODE=pipelined` —
/// the CI chaos job runs this whole suite once per mode, asserting the
/// fault properties hold identically on both.
fn ship_queue_from_env() -> ShipQueueConfig {
    match std::env::var("EARTHPLUS_SHIP_MODE").as_deref() {
        Ok("pipelined") => ShipQueueConfig {
            pipelined: true,
            ..ShipQueueConfig::default()
        },
        _ => ShipQueueConfig::default(),
    }
}

/// Small shards + replicated two-station topology shared by the
/// service-level properties.
fn two_station_config() -> StationSetConfig {
    StationSetConfig {
        stations: 2,
        replicas: 1,
        log: RefLogConfig {
            segment_max_bytes: 4096, // rotate often so ships span files
            ..RefLogConfig::default()
        },
        queue: ship_queue_from_env(),
        ..StationSetConfig::default()
    }
}

fn store_snapshot(service: &GroundService) -> Vec<((LocationId, Band), Option<f64>)> {
    service
        .store()
        .keys()
        .into_iter()
        .map(|(l, b)| ((l, b), service.store().fresh_day(l, b)))
        .collect()
}

#[test]
fn fault_kill_station_then_promote_replica_keeps_schedules_identical() {
    let mut rng = Rng::new(0xFA17_0001);
    for case in 0..3u32 {
        let clean_dir = test_dir(&format!("sched-clean-{case}"));
        let fault_dir = test_dir(&format!("sched-fault-{case}"));
        // Outage window chosen to straddle the pass days below, so the
        // transition (and its failovers) always fires mid-mission.
        let outage_station = (rng.next_u64() % 2) as usize;
        let from_day = rng.range(8, 16) as f64;
        let to_day = from_day + rng.range(6, 12) as f64;
        let base = GroundServiceConfig {
            shards: 4,
            ingest_threads: 1, // deterministic accept/reject counts
            ..GroundServiceConfig::default()
        };
        let clean =
            GroundService::new(base.clone().with_stations(&clean_dir, two_station_config()));
        let faulted = GroundService::new(
            base.with_stations(&fault_dir, two_station_config())
                .with_fault_plan(FaultPlan {
                    seed: 0xF0 + case as u64,
                    outages: vec![OutageWindow {
                        station: outage_station,
                        from_day,
                        to_day,
                    }],
                    ..FaultPlan::default()
                }),
        );

        // Interleave randomized ingest rounds and constellation passes
        // whose days walk through (and past) the outage window.
        for round in 0..8 {
            let pass_day = 1.0 + round as f64 * 4.0;
            let batch: Vec<ReferenceImage> = (0..rng.range(3, 10))
                .map(|_| {
                    let loc = rng.range(0, 9) as u32;
                    let day = rng.range(1, 30) as f64;
                    let value = (rng.next_u64() % 97) as f32 / 97.0;
                    reference(loc, day, value)
                })
                .collect();
            let report_clean = clean.ingest_downlink_batch(batch.clone());
            let report_fault = faulted.ingest_downlink_batch(batch);
            assert_eq!(
                report_clean, report_fault,
                "case {case} round {round}: ingest reports differ"
            );
            let contacts: Vec<ContactWindow> = (0..2u32)
                .map(|sat| ContactWindow {
                    satellite: SatelliteId(sat),
                    day: pass_day,
                    budget_bytes: rng.range(500, 6000) as u64,
                })
                .collect();
            assert_eq!(
                clean.plan_pass(&contacts),
                faulted.plan_pass(&contacts),
                "case {case} round {round}: post-failover schedule diverges"
            );
        }

        let stations = faulted.stations().expect("replicated backend");
        let stats = stations.stats();
        assert!(
            stats.outages >= 1 && stats.failovers >= 1,
            "case {case}: the outage window must have fired (outages {}, failovers {})",
            stats.outages,
            stats.failovers
        );
        // Clean archive: the promotion replays dropped nothing, and the
        // faulted store holds exactly the clean store's references.
        assert!(
            stations.recovery_report().clean(),
            "case {case}: promotion replay must be clean"
        );
        assert_eq!(
            store_snapshot(&clean),
            store_snapshot(&faulted),
            "case {case}: references lost or regressed by failover"
        );
        let _ = std::fs::remove_dir_all(&clean_dir);
        let _ = std::fs::remove_dir_all(&fault_dir);
    }
}

#[test]
fn fault_interrupted_transfers_retry_resume_and_lose_nothing() {
    let dir = test_dir("retry");
    let service = GroundService::new(
        GroundServiceConfig {
            shards: 4,
            ingest_threads: 1,
            ..GroundServiceConfig::default()
        }
        .with_stations(&dir, two_station_config())
        .with_fault_plan(FaultPlan {
            seed: 0xF00D,
            ship_interrupt_probability: 0.5,
            ship_corrupt_probability: 0.25,
            disk_stall_probability: 0.2,
            ..FaultPlan::default()
        }),
    );
    for loc in 0..40u32 {
        assert!(service.ingest_downlink(reference(loc, 2.0 + (loc % 7) as f64, 0.3)));
    }
    service.plan_pass(&window(SatelliteId(0), 40.0, 1 << 20));

    let stations = service.stations().expect("replicated backend");
    let stats = stations.stats();
    assert!(
        stats.faults_injected > 0,
        "the probabilities above must fire"
    );
    assert!(stats.ship_retries > 0, "faults must force retries");
    assert!(
        stats.ship_resumed > 0,
        "an interrupted transfer's verified partial must be resumed"
    );
    assert!(stats.ship_backoff_us > 0, "retries must charge backoff");
    assert!(stats.disk_stalls > 0, "stalls must be counted");

    // Despite every injected transfer fault, the replicas converged: a
    // failover serves exactly the pre-outage archive.
    let before = store_snapshot(&service);
    stations.fail_station(0);
    assert!(stations.stats().failovers > 0);
    assert_eq!(
        store_snapshot(&service),
        before,
        "failover after faulted transfers lost references"
    );
    assert!(
        stations.recovery_report().clean(),
        "replicas shipped under fault must still replay clean"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file under `root` as `(relative path, contents)`, sorted — the
/// byte-level ground truth two drain disciplines must agree on.
fn tree_snapshot(root: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    fn walk(dir: &std::path::Path, base: &std::path::Path, out: &mut Vec<(String, Vec<u8>)>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, base, out);
            } else {
                let rel = path
                    .strip_prefix(base)
                    .expect("walked path is under base")
                    .to_string_lossy()
                    .into_owned();
                out.push((rel, std::fs::read(&path).unwrap()));
            }
        }
    }
    let mut out = Vec::new();
    walk(root, root, &mut out);
    out.sort();
    out
}

#[test]
fn fault_pipelined_drain_permutations_converge() {
    // Property: with the pipelined ship path in manual-drain mode, any
    // seeded permutation of pump order — under transfer fault injection —
    // produces the same uplink schedules and, once caught up, the same
    // on-disk bytes. Shipping is idempotent and ledger-driven, and the
    // scheduler reads only primary log state, so drain order must never
    // be observable.
    let mut rng = Rng::new(0xD4A1_4001);
    let manual_config = || StationSetConfig {
        queue: ShipQueueConfig {
            pipelined: true,
            workers: false,
            queue_depth: 8,
            inflight_window: 2,
        },
        ..two_station_config()
    };
    let plan = |seed| FaultPlan {
        seed,
        ship_interrupt_probability: 0.3,
        ship_corrupt_probability: 0.1,
        disk_stall_probability: 0.1,
        ..FaultPlan::default()
    };
    for case in 0..3u64 {
        let dir_a = test_dir(&format!("perm-a-{case}"));
        let dir_b = test_dir(&format!("perm-b-{case}"));
        let base = GroundServiceConfig {
            shards: 4,
            ingest_threads: 2,
            ..GroundServiceConfig::default()
        };
        let a = GroundService::new(
            base.clone()
                .with_stations(&dir_a, manual_config())
                .with_fault_plan(plan(0xAB + case)),
        );
        let b = GroundService::new(
            base.with_stations(&dir_b, manual_config())
                .with_fault_plan(plan(0xAB + case)),
        );
        for round in 0..6 {
            let batch: Vec<ReferenceImage> = (0..rng.range(4, 12))
                .map(|_| {
                    let loc = rng.range(0, 9) as u32;
                    let day = rng.range(1, 30) as f64;
                    let value = (rng.next_u64() % 97) as f32 / 97.0;
                    reference(loc, day, value)
                })
                .collect();
            assert_eq!(
                a.ingest_downlink_batch(batch.clone()),
                b.ingest_downlink_batch(batch),
                "case {case} round {round}: grouped ingest reports differ"
            );
            // Permute the manual drains: each service pumps a different
            // seeded sequence of stations before the pass.
            let sa = a.stations().expect("replicated backend");
            let sb = b.stations().expect("replicated backend");
            for _ in 0..rng.range(0, 4) {
                sa.pump_station(rng.range(0, 1));
            }
            for _ in 0..rng.range(0, 4) {
                sb.pump_station(rng.range(0, 1));
            }
            let pass_day = 1.0 + round as f64 * 5.0;
            let contacts: Vec<ContactWindow> = (0..2u32)
                .map(|sat| ContactWindow {
                    satellite: SatelliteId(sat),
                    day: pass_day,
                    budget_bytes: rng.range(500, 6000) as u64,
                })
                .collect();
            assert_eq!(
                a.plan_pass(&contacts),
                b.plan_pass(&contacts),
                "case {case} round {round}: drain order changed the schedule"
            );
            // plan_pass quiesces at the boundary, so nothing stays queued.
            for station in 0..2 {
                assert_eq!(sa.queued_shards(station), 0);
                assert_eq!(sb.queued_shards(station), 0);
            }
        }
        // Full catch-up on both (heals any transfer shortfall the fault
        // plan forced), then archives and disk trees must agree exactly.
        for service in [&a, &b] {
            let stations = service.stations().expect("replicated backend");
            stations.quiesce();
            stations.replicate();
        }
        assert_eq!(
            store_snapshot(&a),
            store_snapshot(&b),
            "case {case}: drain permutations diverged in the archive"
        );
        assert_eq!(
            tree_snapshot(&dir_a),
            tree_snapshot(&dir_b),
            "case {case}: drain permutations diverged on disk"
        );
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }
}

#[test]
fn fault_interrupted_pass_carries_undelivered_into_next_window() {
    // Measure the bytes a full six-reference pass needs on a clean run.
    let clean = GroundService::new(GroundServiceConfig::default());
    for loc in 0..6u32 {
        clean.ingest_downlink(reference(loc, 1.0, 0.4));
    }
    let full = clean
        .plan_pass(&window(SatelliteId(0), 2.0, 1 << 30))
        .remove(0);
    assert_eq!(full.deltas_sent, 6);
    let full_bytes = full.bytes_used;

    // Every window drops mid-pass, delivering only 40 % of its budget.
    let service = GroundService::new(GroundServiceConfig::default().with_fault_plan(FaultPlan {
        seed: 1,
        uplink_interrupt_probability: 1.0,
        uplink_interrupt_fraction: 0.4,
        ..FaultPlan::default()
    }));
    for loc in 0..6u32 {
        service.ingest_downlink(reference(loc, 1.0, 0.4));
    }
    let first = service
        .plan_pass(&window(SatelliteId(0), 2.0, full_bytes))
        .remove(0);
    assert!(
        first.deltas_sent < 6 && first.deltas_skipped > 0,
        "the clamped window must not fit the full pass: {first:?}"
    );
    assert_eq!(service.stats().interrupted_windows, 1);

    // The next window (also clamped, but large enough) delivers exactly
    // the carry-over — nothing was forgotten, nothing re-sent.
    let second = service
        .plan_pass(&window(SatelliteId(0), 3.0, full_bytes * 3))
        .remove(0);
    assert_eq!(
        first.deltas_sent + second.deltas_sent,
        6,
        "undelivered references must carry into the next window: {second:?}"
    );
    assert_eq!(second.deltas_skipped, 0);
    assert_eq!(service.stats().interrupted_windows, 2);
    for loc in 0..6u32 {
        assert!(
            service
                .serve_reference(SatelliteId(0), LocationId(loc), red())
                .is_some(),
            "reference {loc} never reached the satellite"
        );
    }
}

#[test]
fn fault_uplink_drops_ignore_storage_faults() {
    // Same seed, same uplink-drop probability: turning transfer faults on
    // changes how many ship attempts draw from the plan, and must not
    // change which contact windows drop.
    let mut rng = Rng::new(0x0D40_5EED);
    let plan = |transfer: f64| FaultPlan {
        seed: 0x5EED_0DD5,
        ship_interrupt_probability: transfer,
        ship_corrupt_probability: transfer / 2.0,
        disk_stall_probability: transfer / 2.0,
        uplink_interrupt_probability: 0.5,
        ..FaultPlan::default()
    };
    let quiet_dir = test_dir("uplink-quiet");
    let noisy_dir = test_dir("uplink-noisy");
    let base = GroundServiceConfig {
        shards: 4,
        ingest_threads: 1,
        ..GroundServiceConfig::default()
    };
    let quiet = GroundService::new(
        base.clone()
            .with_stations(&quiet_dir, two_station_config())
            .with_fault_plan(plan(0.0)),
    );
    let noisy = GroundService::new(
        base.with_stations(&noisy_dir, two_station_config())
            .with_fault_plan(plan(0.4)),
    );
    for round in 0..8 {
        let batch: Vec<ReferenceImage> = (0..rng.range(3, 10))
            .map(|_| {
                let loc = rng.range(0, 9) as u32;
                let day = rng.range(1, 30) as f64;
                reference(loc, day, (rng.next_u64() % 97) as f32 / 97.0)
            })
            .collect();
        assert_eq!(
            quiet.ingest_downlink_batch(batch.clone()),
            noisy.ingest_downlink_batch(batch),
            "round {round}: ingest reports differ"
        );
        let contacts: Vec<ContactWindow> = (0..3u32)
            .map(|sat| ContactWindow {
                satellite: SatelliteId(sat),
                day: 1.0 + round as f64 * 4.0,
                budget_bytes: rng.range(500, 6000) as u64,
            })
            .collect();
        assert_eq!(
            quiet.plan_pass(&contacts),
            noisy.plan_pass(&contacts),
            "round {round}: storage faults moved the uplink schedule"
        );
    }
    let interrupted = quiet.stats().interrupted_windows;
    assert!(interrupted > 0, "the uplink drops above must fire");
    assert_eq!(noisy.stats().interrupted_windows, interrupted);
    let noisy_stats = noisy.stations().expect("replicated backend").stats();
    assert!(noisy_stats.ship_retries > 0, "transfer faults must fire");
    let _ = std::fs::remove_dir_all(&quiet_dir);
    let _ = std::fs::remove_dir_all(&noisy_dir);
}

/// The replicated ground config the end-to-end mission runs on: small
/// segments and an aggressive, tightly budgeted compaction so the
/// background maintenance actually runs inside the mission.
fn mission_ground_config(
    dir: &std::path::Path,
    targets: Vec<(LocationId, Band)>,
    registry: &MetricsRegistry,
    queue: ShipQueueConfig,
) -> GroundServiceConfig {
    let log = RefLogConfig {
        segment_max_bytes: 8192,
        compact_min_dead_bytes: 1024,
        compact_min_dead_fraction: 0.3,
        compaction_step: CompactionBudget {
            max_bytes: 4096,
            max_micros: 5_000,
        },
        ..RefLogConfig::default()
    };
    GroundServiceConfig {
        shards: 4,
        ..GroundServiceConfig::default()
    }
    .with_targets(targets)
    .with_telemetry(registry.sink())
    .with_stations(
        dir,
        StationSetConfig {
            stations: 2,
            replicas: 1,
            log,
            queue,
            ..StationSetConfig::default()
        },
    )
}

#[test]
fn fault_injected_mission_matches_clean_run_end_to_end() {
    let mut dataset = large_constellation(42, 256);
    dataset.duration_days = 45;
    let mut config = SimulationConfig::for_dataset(&dataset, 42);
    config.eval_from_day = 0;
    config.eval_days = 40;
    let sim = MissionSimulator::from_dataset(&dataset, config);
    let detector = train_onboard_detector(&sim.scenes()[0], &TrainingConfig::default());
    let targets: Vec<_> = dataset
        .locations
        .iter()
        .flat_map(|l| l.bands.iter().map(|&b| (l.location, b)))
        .collect();

    // The fault schedule: the initial primary station of the first
    // target's shard goes dark on days [12, 22) — every shard homed
    // there fails over to its replica. After the station rejoins (and is
    // healed by the shipping pass), its now-replica copy of that shard
    // decays on day 28, exercising the scrub-and-re-ship path. Transfer
    // faults run probabilistically throughout. Uplink drops stay at zero:
    // a clamped budget legitimately changes the schedule, and this test's
    // whole point is that storage-side faults must not.
    let shards = 4;
    let (loc0, band0) = targets[0];
    let shard = shard_index(loc0, band0, shards);
    let home = shard % 2;
    let plan = FaultPlan {
        seed: 0xEA57_F417,
        outages: vec![OutageWindow {
            station: home,
            from_day: 12.0,
            to_day: 22.0,
        }],
        corruptions: vec![SegmentCorruption {
            station: home,
            shard,
            day: 28.0,
        }],
        ship_interrupt_probability: 0.15,
        ship_corrupt_probability: 0.05,
        disk_stall_probability: 0.05,
        ..FaultPlan::default()
    };

    let fault_dir = test_dir("mission-fault");
    let clean_dir = test_dir("mission-clean");
    let fault_registry = MetricsRegistry::new();
    let clean_registry = MetricsRegistry::new();
    let ep = EarthPlusConfig::paper();
    // The faulted mission runs the pipelined ship path (background
    // workers, bounded windows); the clean run stays on the synchronous
    // path. Identical schedules below therefore also prove the async
    // pipeline is observationally equivalent to inline shipping.
    let mut faulted = EarthPlusStrategy::with_ground_config(
        ep,
        detector.clone(),
        mission_ground_config(
            &fault_dir,
            targets.clone(),
            &fault_registry,
            ShipQueueConfig {
                pipelined: true,
                ..ShipQueueConfig::default()
            },
        )
        .with_fault_plan(plan),
    );
    let mut clean = EarthPlusStrategy::with_ground_config(
        ep,
        detector,
        mission_ground_config(
            &clean_dir,
            targets,
            &clean_registry,
            ShipQueueConfig::default(),
        ),
    );
    let fault_report = sim.run(&mut [&mut faulted]);
    let clean_report = sim.run(&mut [&mut clean]);

    // Byte-identical uplink schedules: the outage, the decayed replica
    // segment, and every interrupted transfer were absorbed by the
    // replication layer without changing a single scheduling decision.
    assert!(!fault_report.uplink["earth+"].is_empty(), "no passes ran");
    assert_eq!(
        fault_report.uplink["earth+"], clean_report.uplink["earth+"],
        "fault-injected mission's uplink schedule diverged from the clean run"
    );

    // Zero lost references, and the archive replayed clean through every
    // failover promotion.
    assert_eq!(
        store_snapshot(faulted.ground()),
        store_snapshot(clean.ground()),
        "fault-injected mission lost or regressed references"
    );
    let stations = faulted.ground().stations().expect("replicated backend");
    let stats = stations.stats();
    assert!(
        stats.recovery.corrupt_records_dropped == 0 && stats.recovery.truncated_bytes == 0,
        "recovery dropped committed data: {:?}",
        stats.recovery
    );

    // Every planned fault actually happened.
    assert!(stats.outages >= 1, "the outage window never fired");
    assert!(stats.failovers >= 1, "no shard was promoted");
    assert!(
        stats.ship_corrupt_detected >= 1,
        "the decayed replica segment was never detected"
    );
    assert!(stats.ship_retries >= 1, "transfer faults never retried");
    assert!(stats.faults_injected >= 3, "too few faults injected");
    assert_eq!(
        stats.degraded_serves, 0,
        "a replica was always available; no read should have been degraded"
    );

    // Budgeted compaction ran in the background and never overshot: the
    // references here are far smaller than the step budget, so the
    // `max(budget, largest frame)` bound collapses to the budget itself.
    assert!(
        stats.store.compaction_steps > 0,
        "background compaction never ran — thresholds too high for this mission"
    );
    assert!(
        stats.store.max_step_copied_bytes <= 4096,
        "a compaction step copied {} bytes, over its {} budget",
        stats.store.max_step_copied_bytes,
        4096
    );

    // The fault counters are visible in the mission rollup, and the
    // fault-tolerance health rules ran over them and passed.
    let rollup = fault_report.telemetry("earth+");
    let snapshot = rollup.snapshot.as_ref().expect("registry was wired");
    assert!(snapshot.counter(names::FAULTS_INJECTED).unwrap_or(0) > 0);
    assert!(snapshot.counter(names::STATION_FAILOVERS).unwrap_or(0) > 0);
    assert!(snapshot.counter(names::STATION_SHIP_RETRIES).unwrap_or(0) > 0);
    assert_eq!(
        snapshot.counter(names::REFSTORE_RECOVERY_DROPPED_RECORDS),
        Some(0),
        "the recovery series must exist (and be zero) on a durable mission"
    );
    assert!(rollup.daily.is_some(), "daily series missing");
    for rule in [
        "station-degraded-serves",
        "recovery-data-loss",
        "failover-storm",
        // Pipelined run: the ship queues must drain at every day
        // boundary, so the sampled depth gauge stays at zero.
        "ship-queue-backlog",
    ] {
        let verdict = rollup
            .health
            .iter()
            .find(|v| v.rule == rule)
            .unwrap_or_else(|| panic!("health rule {rule} missing from mission rollup"));
        assert_eq!(
            verdict.status,
            HealthStatus::Healthy,
            "health rule {rule} not healthy: {verdict:?}"
        );
    }

    let _ = std::fs::remove_dir_all(&fault_dir);
    let _ = std::fs::remove_dir_all(&clean_dir);
}
