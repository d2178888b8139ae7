//! The compression-strategy abstraction shared by Earth+ and the
//! baselines, plus the ground-side reconstruction state.

use crate::uplink::UplinkReport;
use earthplus_ground::ContactWindow;
use earthplus_orbit::SatelliteId;
use earthplus_raster::{Band, LocationId, Raster, TileGrid, TileMask};
use earthplus_scene::Capture;
use earthplus_telemetry::{Snapshot, TraceId};
use std::collections::HashMap;

/// Wall-clock time spent in each on-board stage for one capture (the
/// quantities of Figure 16).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimings {
    /// Cloud-detection seconds.
    pub cloud_s: f64,
    /// Change-detection seconds (zero for strategies without references).
    pub change_s: f64,
    /// Encoding seconds.
    pub encode_s: f64,
}

impl StageTimings {
    /// Total on-board processing time.
    pub fn total_s(&self) -> f64 {
        self.cloud_s + self.change_s + self.encode_s
    }
}

/// What one strategy did with one capture.
#[derive(Debug, Clone)]
pub struct CaptureReport {
    /// Mission day.
    pub day: f64,
    /// Capturing satellite.
    pub satellite: SatelliteId,
    /// Observed location.
    pub location: LocationId,
    /// Ground-truth cloud fraction of the capture.
    pub cloud_fraction: f64,
    /// Whether the capture was dropped on board (> 50 % cloud, §5).
    pub dropped: bool,
    /// Whether this was a guaranteed (full) download.
    pub guaranteed: bool,
    /// Bytes queued for downlink.
    pub downloaded_bytes: u64,
    /// Fraction of all tiles downloaded, averaged over bands.
    pub downloaded_tile_fraction: f64,
    /// Reconstruction PSNR (dB) on non-cloudy tiles, averaged over bands;
    /// `None` when the capture was dropped.
    pub psnr_db: Option<f64>,
    /// Age of the reference used, in days (strategies without references
    /// report `None`).
    pub reference_age_days: Option<f64>,
    /// Per-stage on-board runtime.
    pub timings: StageTimings,
    /// Bytes queued per band (drives the per-band breakdown of Figure 14).
    pub band_bytes: Vec<(Band, u64)>,
    /// Causal trace id minted for this capture when a flight recorder is
    /// wired ([`TraceId::NONE`] otherwise, and for the baselines). Look it
    /// up in the recorder's [`earthplus_telemetry::TraceLog`] to see every
    /// span the capture touched across strategy, ground, and refstore.
    pub trace: TraceId,
}

/// On-board storage footprint (Figure 15's breakdown).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StorageBreakdown {
    /// Bytes holding captured (encoded) imagery awaiting downlink.
    pub captured_bytes: u64,
    /// Bytes holding reference imagery.
    pub reference_bytes: u64,
}

impl StorageBreakdown {
    /// Total on-board bytes.
    pub fn total(&self) -> u64 {
        self.captured_bytes + self.reference_bytes
    }
}

/// One capture event offered to a strategy.
#[derive(Debug)]
pub struct CaptureContext<'a> {
    /// Mission day.
    pub day: f64,
    /// Capturing satellite.
    pub satellite: SatelliteId,
    /// Observed location.
    pub location: LocationId,
    /// The observation.
    pub capture: &'a Capture,
}

/// A complete on-board + ground compression pipeline under evaluation.
pub trait CompressionStrategy {
    /// Display name used in reports.
    fn name(&self) -> &'static str;

    /// Processes one capture end to end (on-board encode, downlink, ground
    /// reconstruction) and reports the accounting.
    fn on_capture(&mut self, ctx: &CaptureContext<'_>) -> CaptureReport;

    /// Called with a whole *pass*: every satellite's contact windows since
    /// the last planning round, in day order. Returns one report per
    /// window, in window order. Strategies that upload reference data
    /// spend each window's `budget_bytes` here; every strategy drains the
    /// window's satellite's downlink queue.
    fn on_contact_pass(&mut self, contacts: &[ContactWindow]) -> Vec<UplinkReport>;

    /// Current on-board storage footprint (worst satellite).
    fn storage(&self) -> StorageBreakdown;

    /// A point-in-time copy of the strategy's metric registry, when the
    /// caller wired one up (see [`earthplus_telemetry`]). The default —
    /// and the baselines — report `None`: they keep no registry.
    fn telemetry_snapshot(&self) -> Option<Snapshot> {
        None
    }
}

/// Ground-side reconstruction state: the latest known full image per
/// (location, band), patched tile-by-tile as downloads arrive.
#[derive(Debug, Default)]
pub struct GroundBelief {
    beliefs: HashMap<(LocationId, Band), Raster>,
}

impl GroundBelief {
    /// Creates an empty belief store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current belief raster, creating a zero canvas on first touch.
    pub fn belief_mut(
        &mut self,
        location: LocationId,
        band: Band,
        width: usize,
        height: usize,
    ) -> &mut Raster {
        self.beliefs
            .entry((location, band))
            .or_insert_with(|| Raster::new(width, height))
    }

    /// Read-only access to a belief, if any.
    pub fn belief(&self, location: LocationId, band: Band) -> Option<&Raster> {
        self.beliefs.get(&(location, band))
    }

    /// Number of (location, band) beliefs held.
    pub fn len(&self) -> usize {
        self.beliefs.len()
    }

    /// Whether no beliefs exist yet.
    pub fn is_empty(&self) -> bool {
        self.beliefs.is_empty()
    }
}

/// Mean-squared error between `belief` and `target` restricted to the
/// pixels of tiles where `eval_tiles` is set; `None` when no tile is
/// evaluated.
pub fn masked_tile_mse(
    belief: &Raster,
    target: &Raster,
    grid: &TileGrid,
    eval_tiles: &TileMask,
) -> Option<f64> {
    masked_tile_mse_mapped(belief, target, grid, eval_tiles, |v| v)
}

/// [`masked_tile_mse`] of `map` applied to every evaluated belief sample
/// (an illumination alignment, say), without mapping a copy of the whole
/// belief first.
pub(crate) fn masked_tile_mse_mapped(
    belief: &Raster,
    target: &Raster,
    grid: &TileGrid,
    eval_tiles: &TileMask,
    map: impl Fn(f32) -> f32,
) -> Option<f64> {
    let mut sum = 0.0f64;
    let mut n = 0u64;
    for t in eval_tiles.iter_set() {
        let (x0, y0, w, h) = grid.tile_rect(t);
        // Zero-copy row views instead of per-pixel bounds-checked lookups;
        // accumulation order (row-major within the tile) is unchanged.
        let b = belief.view(x0, y0, w, h);
        let g = target.view(x0, y0, w, h);
        for (brow, grow) in b.rows().zip(g.rows()) {
            for (&bv, &gv) in brow.iter().zip(grow) {
                let d = (map(bv) - gv) as f64;
                sum += d * d;
            }
        }
        n += (w * h) as u64;
    }
    if n == 0 {
        None
    } else {
        Some(sum / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earthplus_raster::TileIndex;

    #[test]
    fn timings_total() {
        let t = StageTimings {
            cloud_s: 0.1,
            change_s: 0.2,
            encode_s: 0.3,
        };
        assert!((t.total_s() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn storage_total() {
        let s = StorageBreakdown {
            captured_bytes: 10,
            reference_bytes: 5,
        };
        assert_eq!(s.total(), 15);
    }

    #[test]
    fn belief_initializes_to_zero_canvas() {
        let mut g = GroundBelief::new();
        let b = g.belief_mut(
            LocationId(0),
            Band::Planet(earthplus_raster::PlanetBand::Red),
            8,
            8,
        );
        assert_eq!(b.dimensions(), (8, 8));
        assert!(b.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn masked_mse_restricted_to_tiles() {
        let grid = TileGrid::new(128, 64, 64).unwrap();
        let mut eval = TileMask::new(&grid);
        eval.set(TileIndex::new(0, 0), true);
        let a = Raster::filled(128, 64, 0.0);
        let b = Raster::from_fn(128, 64, |x, _| if x < 64 { 0.5 } else { 1.0 });
        // Only the left tile (diff 0.5) is evaluated.
        let mse = masked_tile_mse(&a, &b, &grid, &eval).unwrap();
        assert!((mse - 0.25).abs() < 1e-9);
    }

    #[test]
    fn masked_mse_none_when_no_tiles() {
        let grid = TileGrid::new(64, 64, 64).unwrap();
        let eval = TileMask::new(&grid);
        let a = Raster::new(64, 64);
        assert!(masked_tile_mse(&a, &a, &grid, &eval).is_none());
    }
}
