//! The Earth+ strategy: constellation-wide reference-based encoding.
//!
//! End-to-end flow per §4.2:
//!
//! 1. at each ground contact, the ground uploads (delta-compressed,
//!    downsampled) reference updates chosen from the constellation-wide
//!    pool, within the 250 kbps uplink budget;
//! 2. on capture, the satellite removes detected clouds, drops > 50 %
//!    cloudy images, illumination-aligns the cached reference, detects
//!    changed tiles at the reference's low resolution with threshold θ,
//!    and ROI-encodes only those tiles at γ bits/pixel;
//! 3. on download, the ground patches the changed tiles into its latest
//!    reconstruction, re-detects clouds accurately, and admits cloud-free
//!    reconstructions into the reference pool;
//! 4. once every 30 days per location, the satellite downloads the full
//!    (non-cloudy) image — the guaranteed-download safety net (§5).

use crate::change::ChangeDetector;
use crate::config::EarthPlusConfig;
use crate::pipeline::{clear_tiles, CapturePipeline};
use crate::reference::ReferenceImage;
use crate::strategy::{
    CaptureContext, CaptureReport, CompressionStrategy, StageTimings, StorageBreakdown,
};
use crate::uplink::UplinkReport;
use earthplus_cloud::OnboardCloudDetector;
use earthplus_codec::{CodecScratch, DecodeScratch};
use earthplus_ground::{ContactWindow, GroundService, GroundServiceConfig};
use earthplus_raster::{Band, LocationId, TileGrid};
use earthplus_telemetry::{names, Histogram, Snapshot, TelemetrySink, TraceSink, TraceTrack};
use std::collections::HashMap;
use std::time::Duration;

/// The Earth+ system under simulation.
///
/// All reference traffic — ingest of cloud-free reconstructions, uplink
/// scheduling across the constellation, and on-board cache reads — routes
/// through one [`GroundService`].
pub struct EarthPlusStrategy {
    config: EarthPlusConfig,
    // Codec arenas, ground belief, and downlink queues (shared with the
    // baselines).
    pipeline: CapturePipeline,
    cloud_detector: OnboardCloudDetector,
    change_detector: ChangeDetector,
    // The ground segment: sharded store + pass scheduler + cache models.
    service: GroundService,
    last_full: HashMap<LocationId, f64>,
    // Telemetry: the sink shared with the ground service, plus the
    // per-stage histograms resolved from it once at construction. All of
    // them are no-op handles unless the caller wired a registry into the
    // ground config. Each stage is timed once, by its span: the same
    // elapsed time becomes the report's StageTimings and, when enabled,
    // the stage histogram's record.
    sink: TelemetrySink,
    // Tracing: the capture path mints one TraceId per capture and opens an
    // ambient scope on the satellite's track, so the codec / ground /
    // refstore spans recorded underneath all carry the same causal id.
    // Disabled (the default), no span records an event, and only the
    // stages the report times read the clock.
    tracing: TraceSink,
    stage_cloud_ns: Histogram,
    stage_change_ns: Histogram,
    stage_encode_ns: Histogram,
    stage_ground_patch_ns: Histogram,
}

impl EarthPlusStrategy {
    /// Creates the strategy.
    ///
    /// `targets` lists every (location, band) the mission serves — the
    /// ground service schedules them at each contact pass.
    pub fn new(
        config: EarthPlusConfig,
        cloud_detector: OnboardCloudDetector,
        targets: Vec<(LocationId, Band)>,
    ) -> Self {
        let ground = GroundServiceConfig::default().with_targets(targets);
        Self::with_ground_config(config, cloud_detector, ground)
    }

    /// Creates the strategy on an explicit ground-segment configuration —
    /// the seam that lets the same mission run on the in-memory or the
    /// persistent reference backend (or a bounded on-board cache model)
    /// with no other code change. The θ in `config` overrides the one in
    /// `ground` so the two cannot drift apart.
    pub fn with_ground_config(
        config: EarthPlusConfig,
        cloud_detector: OnboardCloudDetector,
        ground: GroundServiceConfig,
    ) -> Self {
        // The strategy times its stages into the same sink the ground
        // service exports through, so one registry sees the whole system.
        let sink = ground.telemetry.clone();
        let tracing = ground.tracing.clone();
        let service = GroundService::new(ground.with_theta(config.theta));
        EarthPlusStrategy {
            change_detector: ChangeDetector::new(config.detection_theta(), config.tile_size),
            pipeline: CapturePipeline::new(&config, &sink, &tracing),
            config,
            cloud_detector,
            service,
            last_full: HashMap::new(),
            stage_cloud_ns: sink.histogram(names::STAGE_CLOUD_NS),
            stage_change_ns: sink.histogram(names::STAGE_CHANGE_NS),
            stage_encode_ns: sink.histogram(names::STAGE_ENCODE_NS),
            stage_ground_patch_ns: sink.histogram(names::STAGE_GROUND_PATCH_NS),
            sink,
            tracing,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &EarthPlusConfig {
        &self.config
    }

    /// The ground-segment service (for inspection by experiments).
    pub fn ground(&self) -> &GroundService {
        &self.service
    }

    /// The encoder scratch arena (for allocation accounting in tests and
    /// the perf baseline).
    pub fn codec_scratch(&self) -> &CodecScratch {
        self.pipeline.codec_scratch()
    }

    /// The decoder scratch arena used by the ground-side tile decode (for
    /// allocation accounting in tests and the perf baseline).
    pub fn decode_scratch(&self) -> &DecodeScratch {
        self.pipeline.decode_scratch()
    }

    /// The telemetry sink the strategy (and its ground service) records
    /// through — disabled unless the ground config carried a registry.
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.sink
    }

    /// The trace sink the strategy (and its ground service, codec, and
    /// refstore) records through — disabled unless the ground config
    /// carried a flight recorder.
    pub fn tracing(&self) -> &TraceSink {
        &self.tracing
    }
}

impl CompressionStrategy for EarthPlusStrategy {
    fn name(&self) -> &'static str {
        "earth+"
    }

    fn on_contact_pass(&mut self, contacts: &[ContactWindow]) -> Vec<UplinkReport> {
        // Downlink side: the queued captures drain (downlink is orders of
        // magnitude larger than what Earth+ queues).
        for contact in contacts {
            self.pipeline.drain(contact.satellite);
        }
        self.service.plan_pass(contacts)
    }

    fn on_capture(&mut self, ctx: &CaptureContext<'_>) -> CaptureReport {
        let capture = ctx.capture;
        let (w, h) = capture.image.dimensions();
        let grid = TileGrid::new(w, h, self.config.tile_size).expect("capture is tileable");
        let mut timings = StageTimings::default();

        // Mint this capture's causal trace id and make it ambient on the
        // satellite's track: every span and instant recorded until `_scope`
        // drops — including inside the codec, the ground service, and the
        // refstore — carries the same id, so one capture can be replayed
        // end to end from the flight recorder.
        let trace = self.tracing.mint();
        let _scope = self
            .tracing
            .scope(trace, TraceTrack::Satellite(ctx.satellite.0));
        let mut capture_span = self.tracing.span("strategy", "capture");
        capture_span.arg("day", ctx.day);
        capture_span.arg("location", ctx.location.0);
        capture_span.arg("cloud_fraction", capture.cloud_fraction);

        // 1. Cheap on-board cloud detection.
        // Dropped captures still paid for detection, so the span records
        // into the stage histogram before the drop decision.
        let mut cloud_span = self
            .pipeline
            .stage("cloud_detect")
            .record_into(&self.stage_cloud_ns);
        let detection = self
            .cloud_detector
            .detect(&capture.image)
            .expect("capture is tileable");
        cloud_span.arg("detected_coverage", detection.coverage);
        timings.cloud_s = cloud_span.finish().as_secs_f64();
        let cloudy_tiles = detection.tile_mask;

        // 2. Image dropping (> 50 % detected cloud).
        if detection.coverage > self.config.cloud_drop_threshold {
            self.tracing.instant(
                "strategy",
                "capture.dropped",
                &[("detected_coverage", detection.coverage.into())],
            );
            capture_span.arg("dropped", true);
            return self.pipeline.report(ctx, timings, false, trace);
        }
        let non_cloudy = clear_tiles(&grid, &cloudy_tiles);

        // 3. Guaranteed downloading: full image once per period (§5).
        let guaranteed = ctx.day
            - self
                .last_full
                .get(&ctx.location)
                .copied()
                .unwrap_or(f64::NEG_INFINITY)
            >= self.config.guaranteed_period_days;

        capture_span.arg("guaranteed", guaranteed);
        capture_span.arg("tile_budget_bytes", self.config.tile_budget_bytes() as u64);
        let mut change = Duration::ZERO;
        let mut ground_patch = Duration::ZERO;

        for (band, band_raster) in capture.image.iter() {
            // 4. Change detection against the cached reference. The fitted
            // illumination model (reference radiometry -> this capture's)
            // rides along: the ground inverts it to keep its belief mosaic
            // in one canonical illumination ([72]).
            let mut change_span = self.pipeline.stage("change_detect");
            let served = if guaranteed {
                None
            } else {
                let served = self
                    .service
                    .serve_reference(ctx.satellite, ctx.location, band);
                if served.is_none() {
                    change_span.arg("cold_cache", true);
                }
                served
            };
            // A guaranteed download or a cold cache sends every
            // non-cloudy tile, and this capture defines the canonical
            // illumination (no alignment).
            let (changed, alignment) = match served {
                Some(reference) => {
                    let age = reference.age_days(ctx.day);
                    change_span.arg("reference_age_days", age);
                    self.pipeline.note_reference_age(age);
                    let detection = self
                        .change_detector
                        .detect(band_raster, &reference, Some(&cloudy_tiles))
                        .expect("capture matches reference geometry");
                    (detection.changed, Some(detection.alignment))
                }
                None => (non_cloudy.clone(), None),
            };
            change_span.arg("changed_tiles", changed.count_set());
            change += change_span.finish();

            // 5. ROI-encode the changed tiles at γ bits/pixel.
            let roi = self.pipeline.encode(band, band_raster, &grid, &changed);

            // 6. Ground: decode, normalize tiles into the belief's
            // canonical illumination, patch, and score the rendered
            // reconstruction on non-cloudy tiles.
            // The decode + patch is ground-side work: move the ambient
            // track to the station for this step so the codec's decode
            // spans land on the ground timeline (the trace id rides along
            // unchanged).
            let ground_scope = self.tracing.scope(trace, TraceTrack::Station(0));
            let mut patch_span = self.pipeline.stage("ground.patch");
            patch_span.arg("roi_bytes", roi.size_bytes() as u64);
            self.pipeline.patch_and_score(
                ctx.location,
                band,
                &roi,
                band_raster,
                &non_cloudy,
                alignment.as_ref(),
            );
            ground_patch += patch_span.finish();
            drop(ground_scope);
        }

        timings.change_s = change.as_secs_f64();
        let report = self.pipeline.report(ctx, timings, guaranteed, trace);
        // One record per capture (all bands), mirroring the StageTimings
        // this report carries.
        self.stage_change_ns.record_duration(change);
        self.stage_encode_ns.record_secs(report.timings.encode_s);
        self.stage_ground_patch_ns.record_duration(ground_patch);

        if guaranteed {
            self.last_full.insert(ctx.location, ctx.day);
        }

        // 7. Ground: accurate cloud re-detection admits cloud-free
        // reconstructions into the constellation-wide pool. The simulator
        // uses the scene's exact coverage as the accurate detector's
        // output; `earthplus-cloud` validates separately that
        // `GroundCloudDetector` matches it closely.
        if capture.cloud_fraction < self.config.reference_cloud_max {
            for (band, _) in capture.image.iter() {
                if let Some(belief) = self.pipeline.belief(ctx.location, band) {
                    if let Ok(reference) = ReferenceImage::from_capture(
                        ctx.location,
                        band,
                        ctx.day,
                        belief,
                        self.config.reference_downsample,
                    ) {
                        self.service.ingest_downlink(reference);
                    }
                }
            }
        }

        capture_span.arg("downloaded_bytes", report.downloaded_bytes);
        report
    }

    fn storage(&self) -> StorageBreakdown {
        StorageBreakdown {
            // Two-contact retention of queued captures (Appendix A).
            captured_bytes: self.pipeline.captured_bytes(),
            // Worst single-satellite reference cache footprint observed.
            reference_bytes: self.service.peak_cache_bytes(),
        }
    }

    fn telemetry_snapshot(&self) -> Option<Snapshot> {
        // Day-boundary snapshot: drain any pipelined ship queues first,
        // so the queue-depth / in-flight gauges report the quiesced
        // boundary state the ship-queue-backlog health rule asserts on.
        if let Some(stations) = self.service.stations() {
            stations.quiesce();
        }
        self.sink.registry().map(|r| r.snapshot())
    }
}

impl std::fmt::Debug for EarthPlusStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.service.stats();
        f.debug_struct("EarthPlusStrategy")
            .field("config", &self.config)
            .field("pool_entries", &stats.store_entries)
            .field("satellites", &stats.satellites)
            .finish()
    }
}
