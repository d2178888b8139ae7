//! Baseline strategies: Kodan and SatRoI (§6.1).
//!
//! Both run the capture loop Earth+ runs: the same bitstream format,
//! encoder and decoder arenas, ground patch, and scoring. What is theirs
//! is the cloud detector and the choice of tiles — every non-cloudy tile
//! (Kodan), or the tiles changed against a fixed full-resolution
//! reference (SatRoI). The "Download everything" bar of
//! Figure 19 has compression ratio 1 by definition and runs no strategy.

use crate::config::EarthPlusConfig;
use crate::pipeline::{clear_tiles, CapturePipeline};
use crate::strategy::{
    CaptureContext, CaptureReport, CompressionStrategy, StageTimings, StorageBreakdown,
};
use crate::uplink::UplinkReport;
use earthplus_cloud::{GroundCloudDetector, OnboardCloudDetector};
use earthplus_ground::ContactWindow;
use earthplus_orbit::SatelliteId;
use earthplus_raster::{Band, IlluminationAligner, LocationId, Raster, TileGrid, TileMask};
use earthplus_telemetry::{TelemetrySink, TraceId, TraceSink};
use std::collections::HashMap;
use std::time::Duration;

/// A pipeline for a baseline: no telemetry, no tracing.
fn untraced_pipeline(config: &EarthPlusConfig) -> CapturePipeline {
    CapturePipeline::new(config, &TelemetrySink::disabled(), &TraceSink::disabled())
}

/// The baselines upload nothing: each window of a pass only drains its
/// satellite's downlink queue and reports its budget unspent.
fn drain_only(pipeline: &mut CapturePipeline, contacts: &[ContactWindow]) -> Vec<UplinkReport> {
    contacts
        .iter()
        .map(|c| {
            pipeline.drain(c.satellite);
            UplinkReport {
                bytes_budget: c.budget_bytes,
                ..UplinkReport::default()
            }
        })
        .collect()
}

/// **Kodan** \[37\]: "drop low-value cloud data and download remaining
/// non-cloudy areas".
///
/// Kodan runs an *accurate* (and expensive) cloud detector on board,
/// discards cloudy tiles, and encodes every non-cloudy tile of every
/// capture — it has no notion of reference and re-downloads unchanged
/// content forever.
pub struct KodanStrategy {
    config: EarthPlusConfig,
    detector: GroundCloudDetector,
    pipeline: CapturePipeline,
}

impl KodanStrategy {
    /// Creates the baseline with the shared tile/γ configuration.
    pub fn new(config: EarthPlusConfig) -> Self {
        KodanStrategy {
            detector: GroundCloudDetector::new(config.tile_size),
            pipeline: untraced_pipeline(&config),
            config,
        }
    }
}

impl CompressionStrategy for KodanStrategy {
    fn name(&self) -> &'static str {
        "kodan"
    }

    fn on_capture(&mut self, ctx: &CaptureContext<'_>) -> CaptureReport {
        let capture = ctx.capture;
        let (w, h) = capture.image.dimensions();
        let grid = TileGrid::new(w, h, self.config.tile_size).expect("capture is tileable");

        // Accurate on-board cloud detection (Kodan's expensive stage).
        let span = self.pipeline.stage("cloud_detect");
        let (_, detection) = self
            .detector
            .detect(&capture.image)
            .expect("capture is tileable");
        let timings = StageTimings {
            cloud_s: span.finish().as_secs_f64(),
            ..StageTimings::default()
        };
        let non_cloudy = clear_tiles(&grid, &detection.tile_mask);

        for (band, band_raster) in capture.image.iter() {
            let roi = self.pipeline.encode(band, band_raster, &grid, &non_cloudy);
            self.pipeline
                .patch_and_score(ctx.location, band, &roi, band_raster, &non_cloudy, None);
        }

        let mut report = self.pipeline.report(ctx, timings, false, TraceId::NONE);
        // Every band sends the one mask: report its fraction directly, not
        // the per-band mean, which can differ from it in the last bit.
        report.downloaded_tile_fraction = non_cloudy.count_set() as f64 / grid.tile_count() as f64;
        report
    }

    fn on_contact_pass(&mut self, contacts: &[ContactWindow]) -> Vec<UplinkReport> {
        drain_only(&mut self.pipeline, contacts)
    }

    fn storage(&self) -> StorageBreakdown {
        StorageBreakdown {
            captured_bytes: self.pipeline.captured_bytes(),
            reference_bytes: 0,
        }
    }
}

/// **SatRoI** \[61\]: reference-based encoding "using a fixed reference
/// image".
///
/// The first cloud-free capture each satellite takes of a location becomes
/// its permanent full-resolution reference; change detection runs at full
/// resolution; the reference is never refreshed, so it ages for the whole
/// mission.
pub struct SatRoiStrategy {
    config: EarthPlusConfig,
    cloud_detector: OnboardCloudDetector,
    pipeline: CapturePipeline,
    references: HashMap<(SatelliteId, LocationId, Band), (f64, Raster)>,
    // Bytes of fixed references each satellite holds (12-bit samples).
    reference_bytes: HashMap<SatelliteId, u64>,
}

impl SatRoiStrategy {
    /// Creates the baseline. It shares Earth+'s cheap on-board cloud
    /// detector (Figure 16 times them identically).
    pub fn new(config: EarthPlusConfig, cloud_detector: OnboardCloudDetector) -> Self {
        SatRoiStrategy {
            pipeline: untraced_pipeline(&config),
            config,
            cloud_detector,
            references: HashMap::new(),
            reference_bytes: HashMap::new(),
        }
    }
}

impl CompressionStrategy for SatRoiStrategy {
    fn name(&self) -> &'static str {
        "satroi"
    }

    fn on_capture(&mut self, ctx: &CaptureContext<'_>) -> CaptureReport {
        let capture = ctx.capture;
        let (w, h) = capture.image.dimensions();
        let grid = TileGrid::new(w, h, self.config.tile_size).expect("capture is tileable");
        let mut timings = StageTimings::default();

        let span = self.pipeline.stage("cloud_detect");
        let detection = self
            .cloud_detector
            .detect(&capture.image)
            .expect("capture is tileable");
        timings.cloud_s = span.finish().as_secs_f64();
        let cloudy_tiles = detection.tile_mask;

        if detection.coverage > self.config.cloud_drop_threshold {
            return self.pipeline.report(ctx, timings, false, TraceId::NONE);
        }
        let non_cloudy = clear_tiles(&grid, &cloudy_tiles);

        let aligner = IlluminationAligner::new();
        let may_become_reference = detection.coverage < self.config.reference_cloud_max;
        let mut change = Duration::ZERO;

        for (band, band_raster) in capture.image.iter() {
            let key = (ctx.satellite, ctx.location, band);
            // Full-resolution change detection against the fixed reference;
            // with none yet, every non-cloudy tile is sent and this capture
            // defines the canonical illumination.
            let span = self.pipeline.stage("change_detect");
            let (changed, alignment) = match self.references.get(&key) {
                Some((ref_day, reference)) => {
                    self.pipeline.note_reference_age(ctx.day - ref_day);
                    let alignment = aligner
                        .fit_robust(reference, band_raster, None, 2.0 * self.config.theta)
                        .expect("shapes match");
                    let scores = grid
                        .tile_mean_abs_diff(&alignment.apply_to(reference), band_raster)
                        .expect("shapes match");
                    let mut mask = TileMask::from_scores(&grid, &scores, self.config.theta);
                    mask.subtract(&cloudy_tiles);
                    (mask, Some(alignment))
                }
                None => (non_cloudy.clone(), None),
            };
            change += span.finish();

            let roi = self.pipeline.encode(band, band_raster, &grid, &changed);
            self.pipeline.patch_and_score(
                ctx.location,
                band,
                &roi,
                band_raster,
                &non_cloudy,
                alignment.as_ref(),
            );

            // Fix the reference on the first cloud-free capture.
            if may_become_reference && !self.references.contains_key(&key) {
                *self.reference_bytes.entry(ctx.satellite).or_insert(0) +=
                    (band_raster.len() as u64 * 12).div_ceil(8);
                self.references.insert(key, (ctx.day, band_raster.clone()));
            }
        }

        timings.change_s = change.as_secs_f64();
        self.pipeline.report(ctx, timings, false, TraceId::NONE)
    }

    fn on_contact_pass(&mut self, contacts: &[ContactWindow]) -> Vec<UplinkReport> {
        drain_only(&mut self.pipeline, contacts)
    }

    fn storage(&self) -> StorageBreakdown {
        StorageBreakdown {
            captured_bytes: self.pipeline.captured_bytes(),
            // References are never dropped, so the largest per-satellite
            // total is the worst satellite's peak.
            reference_bytes: self.reference_bytes.values().copied().max().unwrap_or(0),
        }
    }
}

impl std::fmt::Debug for KodanStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KodanStrategy").finish_non_exhaustive()
    }
}

impl std::fmt::Debug for SatRoiStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SatRoiStrategy")
            .field("references", &self.references.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earthplus_cloud::{train_onboard_detector, TrainingConfig};
    use earthplus_scene::terrain::LocationArchetype;
    use earthplus_scene::{LocationScene, SceneConfig};

    #[test]
    fn satroi_storage_is_the_worst_satellite_not_the_constellation() {
        let scene = LocationScene::new(SceneConfig::quick(7, LocationArchetype::Agriculture));
        let detector = train_onboard_detector(&scene, &TrainingConfig::default());
        let mut satroi = SatRoiStrategy::new(EarthPlusConfig::paper(), detector);
        let capture = scene.capture_with_coverage(60.0, 0.0);
        for satellite in [SatelliteId(0), SatelliteId(1)] {
            satroi.on_capture(&CaptureContext {
                day: 60.0,
                satellite,
                location: LocationId(0),
                capture: &capture,
            });
        }
        let bands = capture.image.band_count();
        assert_eq!(satroi.references.len(), 2 * bands, "both satellites fixed");
        let one_satellite: u64 = capture
            .image
            .iter()
            .map(|(_, r)| (r.len() as u64 * 12).div_ceil(8))
            .sum();
        assert_eq!(satroi.storage().reference_bytes, one_satellite);
    }
}
