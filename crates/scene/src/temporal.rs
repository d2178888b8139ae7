//! Temporal change processes.
//!
//! The scene's ground truth evolves through three mechanisms, calibrated to
//! the paper's measurements (§3, Figure 4: ~15 % of tiles changed at a
//! 10-day gap, roughly tripling by a 50-day gap; §6.2, Figure 14: snowy
//! locations change constantly):
//!
//! 1. **Discrete events** ([`EventSchedule`]) — persistent local patches
//!    (harvests, construction, burns) arriving as a Poisson-like process
//!    whose rate depends on land cover. Once an event happens its effect
//!    stays, so the fraction of tiles touched grows with the time gap.
//! 2. **Seasonal drift** ([`SeasonalModel`]) — a smooth annual cycle whose
//!    amplitude varies per pixel (vegetation high, water/rock low). Over
//!    short gaps the drift stays below the change threshold; over tens of
//!    days it pushes most vegetated tiles past it.
//! 3. **Snow albedo volatility** ([`SnowModel`]) — snow-covered pixels
//!    redraw their albedo with a ~1-day correlation time, so any two
//!    captures of a snowy tile differ ("old snow has a lower albedo than
//!    fresh snow, and dirty snow has a lower albedo than clean snow").

use crate::noise::{fbm2, hash3, hash_unit};
use crate::strips::{raster_from_fn, strip_count};
use crate::terrain::{LandCover, TerrainMap};
use earthplus_raster::Raster;

/// One persistent local change (harvest, construction, disturbance...).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChangeEvent {
    /// Day (since scene epoch) on which the change appears.
    pub day: u32,
    /// Patch centre, pixels.
    pub center: (f32, f32),
    /// Patch radius, pixels.
    pub radius: f32,
    /// Reflectance delta at the patch centre (sign carries direction).
    pub delta: f32,
}

impl ChangeEvent {
    /// Evaluates the patch's contribution at a pixel (radial smooth
    /// falloff; zero outside the radius).
    #[inline]
    pub fn contribution(&self, x: f32, y: f32) -> f32 {
        let dx = x - self.center.0;
        let dy = y - self.center.1;
        let d2 = dx * dx + dy * dy;
        let r2 = self.radius * self.radius;
        if d2 >= r2 {
            return 0.0;
        }
        let t = 1.0 - (d2 / r2).sqrt();
        // Smoothstep falloff keeps patch edges from introducing aliasing.
        self.delta * t * t * (3.0 - 2.0 * t)
    }
}

/// Per-day probability that an event spawns in one event cell of the given
/// land cover.
fn event_rate(cover: LandCover) -> f32 {
    // Calibrated so that, combined with seasonal drift, roughly 15-20 % of
    // tiles change over a 5-day gap (§1) and the fraction grows ~3x from a
    // 10-day to a 50-day gap (Figure 4).
    match cover {
        LandCover::Agriculture => 0.020,
        LandCover::Urban => 0.006,
        LandCover::Forest => 0.005,
        LandCover::Grassland => 0.010,
        LandCover::Rock => 0.002,
        LandCover::Water => 0.0015,
    }
}

/// Deterministic schedule of all [`ChangeEvent`]s for one location over a
/// mission horizon, plus a cumulative-field cache for fast sequential
/// capture generation.
#[derive(Debug)]
pub struct EventSchedule {
    width: usize,
    height: usize,
    /// Events sorted by day.
    events: Vec<ChangeEvent>,
}

/// Side length, in pixels, of the cells in which events spawn.
const EVENT_CELL_PX: usize = 96;

impl EventSchedule {
    /// Generates the schedule for `horizon_days` days.
    ///
    /// Event arrivals are a hash-driven Bernoulli process per (cell, day),
    /// with the rate set by the land cover at the cell centre — agriculture
    /// churns fastest, water almost never changes.
    pub fn generate(seed: u64, terrain: &TerrainMap, horizon_days: u32) -> Self {
        let width = terrain.width();
        let height = terrain.height();
        let cells_x = width.div_ceil(EVENT_CELL_PX);
        let cells_y = height.div_ceil(EVENT_CELL_PX);
        let mut events = Vec::new();
        for day in 0..horizon_days {
            for cy in 0..cells_y {
                for cx in 0..cells_x {
                    let ccx = (cx * EVENT_CELL_PX + EVENT_CELL_PX / 2).min(width - 1);
                    let ccy = (cy * EVENT_CELL_PX + EVENT_CELL_PX / 2).min(height - 1);
                    let rate = event_rate(terrain.cover(ccx, ccy));
                    let h = hash3(seed ^ 0xEEE, day as i64, cx as i64, cy as i64);
                    if hash_unit(h) >= rate {
                        continue;
                    }
                    // Spawn one event inside this cell.
                    let hx = hash_unit(hash3(seed ^ 0xE01, day as i64, cx as i64, cy as i64));
                    let hy = hash_unit(hash3(seed ^ 0xE02, day as i64, cx as i64, cy as i64));
                    let hr = hash_unit(hash3(seed ^ 0xE03, day as i64, cx as i64, cy as i64));
                    let hd = hash_unit(hash3(seed ^ 0xE04, day as i64, cx as i64, cy as i64));
                    let center = (
                        (cx * EVENT_CELL_PX) as f32 + hx * EVENT_CELL_PX as f32,
                        (cy * EVENT_CELL_PX) as f32 + hy * EVENT_CELL_PX as f32,
                    );
                    let radius = EVENT_CELL_PX as f32 * (0.25 + 0.75 * hr);
                    // Magnitude distribution skewed toward small changes
                    // (quadratic in the uniform draw): most terrain changes
                    // barely cross the theta=0.01 definition, a few are
                    // large (harvest, construction).
                    let magnitude = 0.025 + 0.13 * hd * hd;
                    let delta = if hash3(seed ^ 0xE05, day as i64, cx as i64, cy as i64) & 1 == 0 {
                        magnitude
                    } else {
                        -magnitude
                    };
                    events.push(ChangeEvent {
                        day,
                        center,
                        radius,
                        delta,
                    });
                }
            }
        }
        EventSchedule {
            width,
            height,
            events,
        }
    }

    /// All events, sorted by day.
    pub fn events(&self) -> &[ChangeEvent] {
        &self.events
    }

    /// Number of events in the horizon.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Rasterizes the cumulative event field at `day`: the sum of every
    /// event patch that has appeared on or before that day.
    pub fn cumulative_field(&self, day: f64) -> Raster {
        let mut field = Raster::new(self.width, self.height);
        self.add_events_in_range(&mut field, 0.0, day);
        field
    }

    /// Adds to `field` the patches of events with day in `(from, to]`.
    /// `field` must match the schedule dimensions.
    pub fn add_events_in_range(&self, field: &mut Raster, from: f64, to: f64) {
        assert_eq!(field.dimensions(), (self.width, self.height));
        for e in &self.events {
            let d = e.day as f64;
            if d <= from || d > to {
                continue;
            }
            self.splat(field, e);
        }
    }

    fn splat(&self, field: &mut Raster, e: &ChangeEvent) {
        let x0 = (e.center.0 - e.radius).floor().max(0.0) as usize;
        let y0 = (e.center.1 - e.radius).floor().max(0.0) as usize;
        let x1 = ((e.center.0 + e.radius).ceil() as usize).min(self.width);
        let y1 = ((e.center.1 + e.radius).ceil() as usize).min(self.height);
        for y in y0..y1 {
            for x in x0..x1 {
                let c = e.contribution(x as f32, y as f32);
                if c != 0.0 {
                    let v = field.get(x, y);
                    field.set(x, y, v + c);
                }
            }
        }
    }
}

/// Smooth annual cycle with per-pixel amplitude.
#[derive(Debug, Clone)]
pub struct SeasonalModel {
    /// Per-pixel amplitude of the annual cycle (band-independent; band
    /// volatility scales it on use).
    amplitude: Raster,
    /// Phase offset in days for this location.
    phase_days: f32,
}

impl SeasonalModel {
    /// Maximum per-pixel seasonal amplitude for fully vegetated pixels.
    /// Calibrated so that ~45 % of tiles cross the θ = 0.01 threshold at a
    /// 50-day gap (Figure 4's right edge).
    pub const MAX_AMPLITUDE: f32 = 0.034;

    /// Builds the per-pixel amplitude field from the terrain: vegetation
    /// responds strongly to seasons, built/rock/water surfaces barely.
    pub fn from_terrain(seed: u64, terrain: &TerrainMap) -> Self {
        Self::from_terrain_in_strips(seed, terrain, strip_count())
    }

    /// [`SeasonalModel::from_terrain`], rendered in `strips` row strips.
    pub(crate) fn from_terrain_in_strips(seed: u64, terrain: &TerrainMap, strips: usize) -> Self {
        let width = terrain.width();
        let height = terrain.height();
        let scale = 1.0 / width.max(height) as f32;
        let amplitude = raster_from_fn(width, height, strips, |x, y| {
            let class_amp = match terrain.cover(x, y) {
                LandCover::Forest => 1.0,
                LandCover::Agriculture => 0.9,
                LandCover::Grassland => 0.7,
                LandCover::Rock => 0.1,
                LandCover::Urban => 0.08,
                LandCover::Water => 0.05,
            };
            // Spatial variation so that tiles cross the change threshold at
            // staggered time gaps rather than all at once.
            let jitter =
                0.15 + 0.85 * fbm2(seed ^ 0x5EA5, x as f32 * scale, y as f32 * scale, 0, 3, 6.0);
            Self::MAX_AMPLITUDE * class_amp * jitter
        });
        let phase_days = hash_unit(hash3(seed ^ 0x5EA6, 0, 0, 0)) * 365.0;
        SeasonalModel {
            amplitude,
            phase_days,
        }
    }

    /// The normalized annual cycle value at `day`, in `[-1, 1]`.
    #[inline]
    pub fn cycle(&self, day: f64) -> f32 {
        let t = (day + self.phase_days as f64) / 365.0;
        (t * std::f64::consts::TAU).sin() as f32
    }

    /// Per-pixel amplitude field.
    pub fn amplitude(&self) -> &Raster {
        &self.amplitude
    }

    /// The seasonal reflectance offset at a pixel and day.
    #[inline]
    pub fn offset(&self, x: usize, y: usize, day: f64) -> f32 {
        self.amplitude.get(x, y) * self.cycle(day)
    }
}

/// Snow cover and albedo volatility.
#[derive(Debug, Clone)]
pub struct SnowModel {
    seed: u64,
    /// Peak fraction of the elevation range that snow can cover (0 disables
    /// snow entirely).
    max_extent: f32,
    /// Day of year when snow extent peaks.
    peak_day: f32,
}

impl SnowModel {
    /// Creates a snow model. `max_extent` of 0.8 reproduces the paper's
    /// "highly snowy during winter and spring" locations (Figure 14 H);
    /// ~0.2 gives ordinary mountains; 0 disables snow.
    pub fn new(seed: u64, max_extent: f32, peak_day: f32) -> Self {
        SnowModel {
            seed,
            max_extent,
            peak_day,
        }
    }

    /// Seasonal snow extent in `[0, max_extent]`: cosine-shaped with its
    /// peak at `peak_day`, zero in the opposite half-year.
    pub fn extent(&self, day: f64) -> f32 {
        let phase = (day - self.peak_day as f64) / 365.0 * std::f64::consts::TAU;
        (phase.cos() as f32).max(0.0) * self.max_extent
    }

    /// Whether a pixel at the given normalized elevation is snow-covered
    /// when the snow reaches `extent` (the day's [`SnowModel::extent`]):
    /// snow accumulates from the highest elevations downward.
    #[inline]
    pub fn is_snow(elevation: f32, extent: f32) -> bool {
        extent > 0.0 && elevation > 1.0 - extent
    }

    /// Snow albedo at a pixel on `day`, in roughly `[0.62, 0.95]`.
    ///
    /// The albedo field is redrawn daily (1-day temporal correlation) with
    /// ±0.12 spatial variation, so a snowy tile essentially always differs
    /// between two captures — reproducing why reference-based encoding
    /// cannot win on snow (Figure 14).
    #[inline]
    pub fn albedo(&self, x: usize, y: usize, day: f64) -> f32 {
        let day_idx = day.floor() as i64;
        let v = fbm2(
            self.seed ^ 0x5704,
            x as f32 / 48.0,
            y as f32 / 48.0,
            day_idx,
            2,
            1.0,
        );
        0.62 + 0.33 * v
    }

    /// Peak snow extent configured for this model.
    pub fn max_extent(&self) -> f32 {
        self.max_extent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::terrain::LocationArchetype;

    fn test_terrain() -> TerrainMap {
        TerrainMap::generate(42, LocationArchetype::Agriculture, 256, 256)
    }

    #[test]
    fn schedule_is_deterministic() {
        let t = test_terrain();
        let a = EventSchedule::generate(1, &t, 60);
        let b = EventSchedule::generate(1, &t, 60);
        assert_eq!(a.events(), b.events());
        assert!(!a.is_empty(), "agriculture over 60 days must have events");
    }

    #[test]
    fn events_sorted_by_day_within_horizon() {
        let t = test_terrain();
        let s = EventSchedule::generate(5, &t, 90);
        assert!(s.events().windows(2).all(|w| w[0].day <= w[1].day));
        assert!(s.events().iter().all(|e| e.day < 90));
    }

    #[test]
    fn cumulative_field_grows_with_time() {
        let t = test_terrain();
        let s = EventSchedule::generate(9, &t, 120);
        let f10 = s.cumulative_field(10.0);
        let f60 = s.cumulative_field(60.0);
        let touched = |f: &Raster| f.as_slice().iter().filter(|v| v.abs() > 1e-6).count();
        assert!(touched(&f60) > touched(&f10));
    }

    #[test]
    fn incremental_matches_from_scratch() {
        let t = test_terrain();
        let s = EventSchedule::generate(9, &t, 80);
        let mut inc = s.cumulative_field(20.0);
        s.add_events_in_range(&mut inc, 20.0, 55.0);
        let scratch = s.cumulative_field(55.0);
        for (a, b) in inc.as_slice().iter().zip(scratch.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn event_contribution_is_local_and_smooth() {
        let e = ChangeEvent {
            day: 0,
            center: (50.0, 50.0),
            radius: 10.0,
            delta: 0.1,
        };
        assert!((e.contribution(50.0, 50.0) - 0.1).abs() < 1e-6);
        assert_eq!(e.contribution(61.0, 50.0), 0.0);
        // Falloff is monotone along a ray.
        let mut prev = e.contribution(50.0, 50.0);
        for i in 1..10 {
            let c = e.contribution(50.0 + i as f32, 50.0);
            assert!(c <= prev + 1e-6);
            prev = c;
        }
    }

    #[test]
    fn agriculture_churns_faster_than_water() {
        assert!(event_rate(LandCover::Agriculture) > 5.0 * event_rate(LandCover::Water));
    }

    #[test]
    fn seasonal_amplitude_depends_on_cover() {
        let t = TerrainMap::generate(3, LocationArchetype::City, 256, 256);
        let s = SeasonalModel::from_terrain(3, &t);
        // Mean amplitude over urban pixels must be far below vegetated max.
        let mut urban = Vec::new();
        let mut veg = Vec::new();
        for y in 0..256 {
            for x in 0..256 {
                let a = s.amplitude().get(x, y) as f64;
                match t.cover(x, y) {
                    LandCover::Urban => urban.push(a),
                    LandCover::Forest | LandCover::Agriculture => veg.push(a),
                    _ => {}
                }
            }
        }
        if !urban.is_empty() && !veg.is_empty() {
            let mu: f64 = urban.iter().sum::<f64>() / urban.len() as f64;
            let mv: f64 = veg.iter().sum::<f64>() / veg.len() as f64;
            assert!(mv > 3.0 * mu, "veg {mv} vs urban {mu}");
        }
    }

    #[test]
    fn seasonal_cycle_is_annual() {
        let t = test_terrain();
        let s = SeasonalModel::from_terrain(7, &t);
        assert!((s.cycle(10.0) - s.cycle(10.0 + 365.0)).abs() < 1e-4);
        // Half a year apart is (close to) opposite sign.
        assert!((s.cycle(10.0) + s.cycle(10.0 + 182.5)).abs() < 1e-2);
    }

    #[test]
    fn short_gap_seasonal_drift_below_threshold() {
        let t = test_terrain();
        let s = SeasonalModel::from_terrain(7, &t);
        // Worst-case drift over 3 days anywhere must stay below 0.01
        // (theta): max amplitude * |cycle'| * 3 days.
        let max_amp = SeasonalModel::MAX_AMPLITUDE;
        let max_daily = max_amp * (std::f32::consts::TAU / 365.0);
        assert!(max_daily * 3.0 < 0.01);
        let d = (s.offset(5, 5, 100.0) - s.offset(5, 5, 103.0)).abs();
        assert!(d < 0.01);
    }

    #[test]
    fn snow_extent_seasonal() {
        let snow = SnowModel::new(1, 0.8, 15.0);
        assert!(snow.extent(15.0) > 0.79);
        assert_eq!(snow.extent(15.0 + 182.5), 0.0);
        assert!(SnowModel::is_snow(0.9, snow.extent(15.0)));
        assert!(!SnowModel::is_snow(0.1, snow.extent(15.0)));
        assert!(!SnowModel::is_snow(0.9, snow.extent(190.0)));
    }

    #[test]
    fn snow_albedo_volatile_across_days() {
        let snow = SnowModel::new(1, 0.8, 15.0);
        // Average albedo delta across one day must exceed theta = 0.01.
        let mut total = 0.0f64;
        let mut n = 0;
        for y in (0..256).step_by(8) {
            for x in (0..256).step_by(8) {
                total += (snow.albedo(x, y, 10.0) - snow.albedo(x, y, 12.0)).abs() as f64;
                n += 1;
            }
        }
        let mean = total / n as f64;
        assert!(mean > 0.01, "mean albedo delta {mean}");
    }

    #[test]
    fn disabled_snow_never_snows() {
        let snow = SnowModel::new(1, 0.0, 15.0);
        assert!(!SnowModel::is_snow(1.0, snow.extent(15.0)));
    }
}
