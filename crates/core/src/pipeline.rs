//! The capture loop every strategy shares: ROI-encode the chosen tiles of
//! each band through one scratch arena, decode and patch them into the
//! ground's belief, score the reconstruction, and assemble the capture's
//! [`CaptureReport`].
//!
//! Earth+ and the baselines differ only in which cloud detector runs and
//! which tiles they send; routing the codec, the patch, and the scoring
//! through this one path keeps their comparison like for like (same
//! bitstream format, same arenas, same PSNR definition).

use crate::config::EarthPlusConfig;
use crate::strategy::{
    masked_tile_mse, masked_tile_mse_mapped, CaptureContext, CaptureReport, GroundBelief,
    StageTimings,
};
use earthplus_codec::{
    encode_roi_with_scratch, CodecConfig, CodecScratch, DecodeScratch, RoiBitstream,
};
use earthplus_orbit::SatelliteId;
use earthplus_raster::{
    psnr_from_mse, AlignmentModel, Band, LocationId, Raster, TileGrid, TileMask,
};
use earthplus_telemetry::{TelemetrySink, TraceId, TraceSink, TraceSpan};
use std::collections::HashMap;
use std::time::Duration;

/// The tiles of `grid` not in `cloudy`: what a capture can send, and
/// where its reconstruction is scored.
pub(crate) fn clear_tiles(grid: &TileGrid, cloudy: &TileMask) -> TileMask {
    let mut clear = TileMask::new(grid);
    clear.fill();
    clear.subtract(cloudy);
    clear
}

/// Codec, ground belief, and downlink-queue state of one strategy, plus
/// the tally of the capture in progress.
pub(crate) struct CapturePipeline {
    codec: CodecConfig,
    tile_budget: usize,
    tracing: TraceSink,
    // Reusable encoder and decoder arenas (and the decoded-tile buffers,
    // one per tile of the widest band so far): they persist across tiles,
    // bands, and captures, so the steady-state encode and decode paths
    // allocate no scratch at all.
    codec_scratch: CodecScratch,
    decode_scratch: DecodeScratch,
    tiles: Vec<Raster>,
    belief: GroundBelief,
    // Per-satellite downlink queue accounting.
    pending_bytes: HashMap<SatelliteId, u64>,
    peak_pending: u64,
    tally: CaptureTally,
}

/// What the capture in progress has sent and scored so far, band by band.
#[derive(Default)]
struct CaptureTally {
    encode: Duration,
    band_bytes: Vec<(Band, u64)>,
    tile_fraction_sum: f64,
    mse_sum: f64,
    mse_bands: u32,
    ref_age_sum: f64,
    ref_age_n: u32,
}

impl CapturePipeline {
    /// A pipeline encoding EPC2 at `config`'s γ, with both arenas
    /// reporting through `sink` and `tracing`.
    pub(crate) fn new(config: &EarthPlusConfig, sink: &TelemetrySink, tracing: &TraceSink) -> Self {
        let mut codec_scratch = CodecScratch::new();
        codec_scratch.set_telemetry(sink);
        codec_scratch.set_tracing(tracing);
        let mut decode_scratch = DecodeScratch::new();
        decode_scratch.set_telemetry(sink);
        decode_scratch.set_tracing(tracing);
        CapturePipeline {
            codec: CodecConfig::lossy(),
            tile_budget: config.tile_budget_bytes(),
            tracing: tracing.clone(),
            codec_scratch,
            decode_scratch,
            tiles: Vec::new(),
            belief: GroundBelief::new(),
            pending_bytes: HashMap::new(),
            peak_pending: 0,
            tally: CaptureTally::default(),
        }
    }

    /// Opens one timed stage of the capture in progress: a span on the
    /// `"strategy"` lane that always reads the clock, so its
    /// [`TraceSpan::finish`] gives the stage's [`StageTimings`] time. The
    /// same pair of readings stamps its trace events when tracing is on.
    pub(crate) fn stage(&self, name: &'static str) -> TraceSpan {
        self.tracing.span("strategy", name).timed()
    }

    pub(crate) fn codec_scratch(&self) -> &CodecScratch {
        &self.codec_scratch
    }

    pub(crate) fn decode_scratch(&self) -> &DecodeScratch {
        &self.decode_scratch
    }

    /// The ground's current reconstruction of one (location, band).
    pub(crate) fn belief(&self, location: LocationId, band: Band) -> Option<&Raster> {
        self.belief.belief(location, band)
    }

    /// ROI-encodes `tiles` of one band at γ, tallying the encode time,
    /// the band's bytes, and its downloaded tile fraction.
    pub(crate) fn encode(
        &mut self,
        band: Band,
        image: &Raster,
        grid: &TileGrid,
        tiles: &TileMask,
    ) -> RoiBitstream {
        let span = self.stage("roi_encode");
        let roi = encode_roi_with_scratch(
            image,
            grid,
            tiles,
            &self.codec,
            self.tile_budget,
            &mut self.codec_scratch,
        )
        .expect("image matches grid");
        self.tally.encode += span.finish();
        self.tally.band_bytes.push((band, roi.size_bytes() as u64));
        self.tally.tile_fraction_sum += tiles.count_set() as f64 / grid.tile_count() as f64;
        roi
    }

    /// The ground side of one band: decodes `roi` (its tiles fanned out
    /// over the host's cores), patches its tiles into the belief in tile
    /// order, and tallies the masked MSE against `target` on the `eval`
    /// tiles.
    ///
    /// With an `alignment` (reference radiometry → this capture's), the
    /// tiles are first normalized into the belief's canonical
    /// illumination and the belief is rendered back under the capture's
    /// illumination for scoring; without one, this capture defines the
    /// canonical illumination and the belief is scored as is.
    pub(crate) fn patch_and_score(
        &mut self,
        location: LocationId,
        band: Band,
        roi: &RoiBitstream,
        target: &Raster,
        eval: &TileMask,
        alignment: Option<&AlignmentModel>,
    ) {
        let (w, h) = target.dimensions();
        let grid = TileGrid::new(w, h, roi.tile_size() as usize).expect("roi matches target");
        let n = roi.tile_count();
        if self.tiles.len() < n {
            self.tiles.resize_with(n, || Raster::new(0, 0));
        }
        let tiles = &mut self.tiles[..n];
        roi.decode_tiles_into(&mut self.decode_scratch, tiles)
            .expect("self-produced bitstream");
        let belief = self.belief.belief_mut(location, band, w, h);
        for (encoded, tile) in roi.tiles().iter().zip(tiles) {
            if let Some(a) = alignment {
                let gain = if a.gain.abs() < 0.25 { 1.0 } else { a.gain };
                tile.map_in_place(|v| (v - a.offset) / gain);
            }
            grid.insert_tile(
                belief,
                grid.from_flat_index(encoded.flat_index as usize),
                tile,
            )
            .expect("belief matches grid");
        }
        let mse = match alignment {
            Some(a) => masked_tile_mse_mapped(belief, target, &grid, eval, |v| a.apply(v)),
            None => masked_tile_mse(belief, target, &grid, eval),
        };
        if let Some(mse) = mse {
            self.tally.mse_sum += mse;
            self.tally.mse_bands += 1;
        }
    }

    /// Tallies the age of the reference one band was compared against.
    pub(crate) fn note_reference_age(&mut self, age_days: f64) {
        self.tally.ref_age_sum += age_days;
        self.tally.ref_age_n += 1;
    }

    /// Closes the capture: queues its bytes on the capturing satellite and
    /// assembles its report from the bands tallied since the last report
    /// (none means it was dropped on board). `timings` carries the
    /// strategy's cloud and change seconds; the encode seconds are the
    /// tally's.
    pub(crate) fn report(
        &mut self,
        ctx: &CaptureContext<'_>,
        timings: StageTimings,
        guaranteed: bool,
        trace: TraceId,
    ) -> CaptureReport {
        let tally = std::mem::take(&mut self.tally);
        let downloaded_bytes = tally.band_bytes.iter().map(|&(_, b)| b).sum();
        let pending = self.pending_bytes.entry(ctx.satellite).or_insert(0);
        *pending += downloaded_bytes;
        self.peak_pending = self.peak_pending.max(*pending);
        let bands = ctx.capture.image.band_count() as f64;
        CaptureReport {
            day: ctx.day,
            satellite: ctx.satellite,
            location: ctx.location,
            cloud_fraction: ctx.capture.cloud_fraction,
            dropped: tally.band_bytes.is_empty(),
            guaranteed,
            downloaded_bytes,
            downloaded_tile_fraction: tally.tile_fraction_sum / bands,
            psnr_db: (tally.mse_bands > 0)
                .then(|| psnr_from_mse(tally.mse_sum / tally.mse_bands as f64)),
            reference_age_days: (tally.ref_age_n > 0)
                .then(|| tally.ref_age_sum / tally.ref_age_n as f64),
            timings: StageTimings {
                encode_s: tally.encode.as_secs_f64(),
                ..timings
            },
            band_bytes: tally.band_bytes,
            trace,
        }
    }

    /// A ground contact drains the satellite's downlink queue.
    pub(crate) fn drain(&mut self, satellite: SatelliteId) {
        if let Some(p) = self.pending_bytes.get_mut(&satellite) {
            *p = 0;
        }
    }

    /// On-board bytes for queued captures: two contacts' retention of the
    /// worst queue observed (Appendix A).
    pub(crate) fn captured_bytes(&self) -> u64 {
        2 * self.peak_pending
    }
}
