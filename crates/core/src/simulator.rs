//! The mission simulator: drives a constellation over a dataset and runs
//! compression strategies side by side on identical captures.

use crate::strategy::{CaptureContext, CaptureReport, CompressionStrategy, StorageBreakdown};
use crate::telemetry::TelemetryReport;
use crate::uplink::UplinkReport;
use earthplus_ground::ContactWindow;
use earthplus_orbit::{Constellation, ContactSchedule, LinkModel, SatelliteId};
use earthplus_scene::{DatasetConfig, LocationScene};
use earthplus_telemetry::SeriesRecorder;
use std::collections::HashMap;

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimulationConfig {
    /// Seed for orbital schedules.
    pub seed: u64,
    /// First evaluation day (earlier days are the profiling period used
    /// for detector training and θ selection, as in §5).
    pub eval_from_day: u32,
    /// Evaluation duration in days.
    pub eval_days: u32,
    /// The uplink model (Doves 250 kbps by default).
    pub uplink: LinkModel,
    /// Images a satellite downloads per ground contact (its capture
    /// backlog); converts per-capture bytes into contact-level bandwidth.
    pub images_per_contact: f64,
    /// Scale factor from simulated pixels to the paper's full-size images
    /// when reporting bandwidths.
    pub pixel_scale: f64,
}

impl SimulationConfig {
    /// A standard configuration for a dataset: evaluation starts after a
    /// 40-day profiling period and runs for the dataset duration.
    pub fn for_dataset(dataset: &DatasetConfig, seed: u64) -> Self {
        let sim_px = dataset.pixels_per_capture() as f64;
        // Paper-scale pixels: Doves 6600x4400 for the Planet dataset;
        // Sentinel-2 locations are 4000x4000 at 10 m, downsampled 4x by
        // the paper itself (=> 1000x1000).
        let paper_px: f64 = if dataset.capture_cloud_filter.is_some() {
            6600.0 * 4400.0
        } else {
            1000.0 * 1000.0
        };
        SimulationConfig {
            seed,
            eval_from_day: 40,
            eval_days: dataset.duration_days,
            uplink: LinkModel::doves_uplink(),
            images_per_contact: 35.0,
            pixel_scale: paper_px / sim_px.max(1.0),
        }
    }
}

/// All records produced by one simulation run.
#[derive(Debug, Default)]
pub struct MissionReport {
    /// Per-strategy capture records, in day order.
    pub captures: HashMap<String, Vec<CaptureReport>>,
    /// Per-strategy uplink contact records.
    pub uplink: HashMap<String, Vec<UplinkReport>>,
    /// Per-strategy on-board storage footprint at mission end.
    pub storage: HashMap<String, StorageBreakdown>,
    /// Per-strategy telemetry rollup: stage-timing distributions per
    /// satellite and constellation-wide, plus the strategy's registry
    /// snapshot when observability was wired up.
    pub telemetry: HashMap<String, TelemetryReport>,
    /// Visits skipped by the dataset's cloud filter.
    pub filtered_visits: usize,
}

impl MissionReport {
    /// Records for one strategy.
    ///
    /// # Panics
    ///
    /// Panics if the strategy was not part of the run.
    pub fn records(&self, name: &str) -> &[CaptureReport] {
        self.captures
            .get(name)
            .unwrap_or_else(|| panic!("strategy {name} not in report"))
    }

    /// The telemetry rollup for one strategy.
    ///
    /// # Panics
    ///
    /// Panics if the strategy was not part of the run.
    pub fn telemetry(&self, name: &str) -> &TelemetryReport {
        self.telemetry
            .get(name)
            .unwrap_or_else(|| panic!("strategy {name} not in report"))
    }
}

/// Drives scenes, orbits, and strategies.
pub struct MissionSimulator {
    scenes: Vec<LocationScene>,
    constellation: Constellation,
    contacts: ContactSchedule,
    cloud_filter: Option<f64>,
    config: SimulationConfig,
}

impl MissionSimulator {
    /// Builds the simulator for a dataset (instantiates every location's
    /// scene — the expensive part).
    pub fn from_dataset(dataset: &DatasetConfig, config: SimulationConfig) -> Self {
        let scenes = dataset
            .locations
            .iter()
            .map(|c| LocationScene::new(c.clone()))
            .collect();
        MissionSimulator {
            scenes,
            constellation: Constellation::doves(dataset.satellite_count, config.seed),
            contacts: ContactSchedule::new(config.seed ^ 0xC0),
            cloud_filter: dataset.capture_cloud_filter,
            config,
        }
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// The location scenes.
    pub fn scenes(&self) -> &[LocationScene] {
        &self.scenes
    }

    /// The constellation.
    pub fn constellation(&self) -> &Constellation {
        &self.constellation
    }

    /// Runs every strategy over the mission, feeding all of them the same
    /// capture sequence and ground-contact windows.
    pub fn run(&self, strategies: &mut [&mut dyn CompressionStrategy]) -> MissionReport {
        let from = self.config.eval_from_day as i64;
        let to = from + self.config.eval_days as i64;

        // Gather all visits across locations, sorted by day.
        let mut visits = Vec::new();
        for scene in &self.scenes {
            let loc = scene.config().location;
            visits.extend(self.constellation.visits(loc, from, to));
        }
        visits.sort_by(|a, b| a.day.partial_cmp(&b.day).expect("days are finite"));

        let mut report = MissionReport::default();
        for s in strategies.iter() {
            report.captures.insert(s.name().to_owned(), Vec::new());
            report.uplink.insert(s.name().to_owned(), Vec::new());
        }

        // Per-satellite time cursor for contact processing.
        let mut last_contact_day: HashMap<SatelliteId, f64> = HashMap::new();

        // Windowed telemetry: snapshot each strategy's registry at every
        // mission-day boundary, so the rollup can report per-day series
        // (throughput, stage p90s, cache hit rate) instead of only
        // mission-total aggregates. Strategies without a registry never
        // observe a window and simply report no daily series.
        let mut recorders: HashMap<String, SeriesRecorder> = strategies
            .iter()
            .map(|s| (s.name().to_owned(), SeriesRecorder::new()))
            .collect();
        let mut window_day: Option<f64> = None;
        let mut observe_windows = |strategies: &[&mut dyn CompressionStrategy], day: f64| {
            for s in strategies.iter() {
                if let Some(snapshot) = s.telemetry_snapshot() {
                    recorders
                        .get_mut(s.name())
                        .expect("strategy registered")
                        .observe(day, snapshot);
                }
            }
        };

        for visit in visits {
            // Close out finished day windows before this visit's work.
            let day_floor = visit.day.floor();
            if let Some(w) = window_day {
                if day_floor > w {
                    observe_windows(strategies, w);
                }
            }
            if window_day.is_none_or(|w| day_floor > w) {
                window_day = Some(day_floor);
            }

            let scene = self
                .scenes
                .iter()
                .find(|s| s.config().location == visit.location)
                .expect("visit references a known location");

            // Dataset-level cloud filter (the Planet dataset only contains
            // captures below 5 % cloud).
            let coverage = scene.cloud_coverage(visit.day);
            if let Some(filter) = self.cloud_filter {
                if coverage > filter {
                    report.filtered_visits += 1;
                    continue;
                }
            }

            // Deliver the ground contacts that occurred anywhere in the
            // constellation since the last planning round, as one pass in
            // day order. Planning every satellite's windows at their
            // actual time (instead of lazily when that satellite next
            // captures) keeps the ground from scheduling with pool state
            // from the future, and lets strategies with a
            // constellation-wide ground segment batch the whole pass.
            let mut pass: Vec<ContactWindow> = Vec::new();
            for satellite in self.constellation.satellites() {
                let start = last_contact_day
                    .get(&satellite.id)
                    .copied()
                    .unwrap_or(from as f64);
                for contact in self.contacts.contacts(satellite.id, start, visit.day) {
                    pass.push(ContactWindow {
                        satellite: satellite.id,
                        day: contact.day,
                        budget_bytes: self.config.uplink.bytes_per_contact(contact.index),
                    });
                }
                last_contact_day.insert(satellite.id, visit.day);
            }
            pass.sort_by(|a, b| a.day.partial_cmp(&b.day).expect("days are finite"));
            if !pass.is_empty() {
                for s in strategies.iter_mut() {
                    let reports = s.on_contact_pass(&pass);
                    report
                        .uplink
                        .get_mut(s.name())
                        .expect("strategy registered")
                        .extend(reports);
                }
            }

            let capture = scene.capture(visit.day);
            let ctx = CaptureContext {
                day: visit.day,
                satellite: visit.satellite,
                location: visit.location,
                capture: &capture,
            };
            for s in strategies.iter_mut() {
                let r = s.on_capture(&ctx);
                report
                    .captures
                    .get_mut(s.name())
                    .expect("strategy registered")
                    .push(r);
            }
        }

        // Close the last (possibly partial) day window.
        if let Some(w) = window_day {
            observe_windows(strategies, w);
        }

        for s in strategies.iter() {
            report.storage.insert(s.name().to_owned(), s.storage());
            let mut rollup = TelemetryReport::from_records(
                &report.captures[s.name()],
                &report.uplink[s.name()],
                s.telemetry_snapshot(),
            );
            let recorder = &recorders[s.name()];
            if !recorder.is_empty() {
                rollup = rollup.with_daily(
                    recorder.series(&TelemetryReport::mission_series_specs()),
                    &TelemetryReport::mission_health_rules(),
                );
            }
            report.telemetry.insert(s.name().to_owned(), rollup);
        }
        report
    }
}

impl std::fmt::Debug for MissionSimulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MissionSimulator")
            .field("locations", &self.scenes.len())
            .field("satellites", &self.constellation.len())
            .field("config", &self.config)
            .finish()
    }
}
