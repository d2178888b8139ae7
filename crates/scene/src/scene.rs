//! The top-level scene model: deterministic synthetic Earth observation.

use crate::clouds::{CloudClimate, CloudField};
use crate::illumination::IlluminationConfig;
use crate::reflectance::{
    base_reflectance, cloud_reflectance, grain_scale, snow_reflectance, texture_scale,
};
use crate::sensor::SensorModel;
use crate::temporal::{EventSchedule, SeasonalModel, SnowModel};
use crate::terrain::{LocationArchetype, TerrainMap};
use earthplus_raster::{Band, LocationId, MultiBandImage, Raster};
use std::sync::Mutex;

/// Everything needed to instantiate one location's scene.
#[derive(Debug, Clone, PartialEq)]
pub struct SceneConfig {
    /// Master seed; all fields derive deterministically from it.
    pub seed: u64,
    /// Location identifier (also salts the seed).
    pub location: LocationId,
    /// Dominant geographic context.
    pub archetype: LocationArchetype,
    /// Capture width in pixels.
    pub width: usize,
    /// Capture height in pixels.
    pub height: usize,
    /// Ground sampling distance, metres per pixel.
    pub gsd_m: f64,
    /// Spectral bands captured at this location.
    pub bands: Vec<Band>,
    /// Cloud climate.
    pub climate: CloudClimate,
    /// Illumination process.
    pub illumination: IlluminationConfig,
    /// Sensor model.
    pub sensor: SensorModel,
    /// Peak fraction of the elevation range covered by snow (0 = no snow).
    pub snow_max_extent: f32,
    /// Day of year when snow peaks.
    pub snow_peak_day: f32,
    /// Horizon, in days, over which change events are scheduled.
    pub horizon_days: u32,
}

impl SceneConfig {
    /// A standard configuration: derives the snow extent from the
    /// archetype, 420-day horizon, temperate climate, standard illumination
    /// and sensor.
    pub fn new(
        seed: u64,
        location: LocationId,
        archetype: LocationArchetype,
        width: usize,
        height: usize,
        bands: Vec<Band>,
    ) -> Self {
        let snow_max_extent = match archetype {
            LocationArchetype::SnowyMountain => 0.85,
            LocationArchetype::Mountain => 0.18,
            _ => 0.0,
        };
        SceneConfig {
            seed,
            location,
            archetype,
            width,
            height,
            gsd_m: 10.0,
            bands,
            climate: CloudClimate::temperate(),
            illumination: IlluminationConfig::standard(),
            sensor: SensorModel::standard(),
            snow_max_extent,
            snow_peak_day: 15.0,
            horizon_days: 420,
        }
    }

    /// Small Planet-band scene for tests and examples.
    pub fn quick(seed: u64, archetype: LocationArchetype) -> Self {
        SceneConfig::new(seed, LocationId(0), archetype, 256, 256, Band::planet_all())
    }

    /// Overrides the cloud climate.
    pub fn with_climate(mut self, climate: CloudClimate) -> Self {
        self.climate = climate;
        self
    }

    /// Overrides the peak snow extent.
    pub fn with_snow_extent(mut self, extent: f32) -> Self {
        self.snow_max_extent = extent;
        self
    }

    /// Overrides the sensor model.
    pub fn with_sensor(mut self, sensor: SensorModel) -> Self {
        self.sensor = sensor;
        self
    }

    /// The effective per-location seed.
    fn location_seed(&self) -> u64 {
        self.seed ^ (self.location.0 as u64).wrapping_mul(0xA24B_AED4_963E_E407)
    }
}

/// One simulated satellite observation of a location.
#[derive(Debug, Clone)]
pub struct Capture {
    /// Day (since scene epoch) of the observation.
    pub day: f64,
    /// Observed multi-band image: ground truth under illumination, clouds,
    /// sensor noise, and quantization.
    pub image: MultiBandImage,
    /// Ground-truth cloud opacity in `[0, 1]` per pixel.
    pub cloud_alpha: Raster,
    /// Ground-truth fraction of cloud-covered pixels (opacity > 0.5).
    pub cloud_fraction: f64,
}

impl Capture {
    /// Ground-truth boolean cloud mask at the 0.5 opacity level.
    pub fn cloud_mask(&self) -> Vec<bool> {
        self.cloud_alpha
            .as_slice()
            .iter()
            .map(|&a| a > 0.5)
            .collect()
    }
}

#[derive(Debug)]
struct EventFieldCache {
    day: f64,
    field: Raster,
}

/// Deterministic synthetic scene for one location.
///
/// Constructing the scene synthesizes the static fields (terrain, land
/// cover, seasonal amplitudes, event schedule); [`LocationScene::capture`]
/// then composes the observation for any day. Captures at the same day are
/// bit-identical across calls and across `LocationScene` instances built
/// from the same config.
///
/// # Example
///
/// ```
/// use earthplus_scene::{LocationScene, SceneConfig};
/// use earthplus_scene::terrain::LocationArchetype;
///
/// let scene = LocationScene::new(SceneConfig::quick(7, LocationArchetype::Agriculture));
/// let capture = scene.capture(12.0);
/// assert_eq!(capture.image.band_count(), 4);
/// ```
#[derive(Debug)]
pub struct LocationScene {
    config: SceneConfig,
    terrain: TerrainMap,
    seasonal: SeasonalModel,
    snow: SnowModel,
    events: EventSchedule,
    cache: Mutex<Option<EventFieldCache>>,
}

impl LocationScene {
    /// Synthesizes the scene's static fields.
    pub fn new(config: SceneConfig) -> Self {
        let seed = config.location_seed();
        let terrain = TerrainMap::generate(seed, config.archetype, config.width, config.height);
        let seasonal = SeasonalModel::from_terrain(seed, &terrain);
        let snow = SnowModel::new(seed, config.snow_max_extent, config.snow_peak_day);
        let events = EventSchedule::generate(seed, &terrain, config.horizon_days);
        LocationScene {
            config,
            terrain,
            seasonal,
            snow,
            events,
            cache: Mutex::new(None),
        }
    }

    /// The scene configuration.
    pub fn config(&self) -> &SceneConfig {
        &self.config
    }

    /// The synthesized terrain.
    pub fn terrain(&self) -> &TerrainMap {
        &self.terrain
    }

    /// The change-event schedule.
    pub fn events(&self) -> &EventSchedule {
        &self.events
    }

    /// Ground-truth cloud coverage fraction the climate draws for `day`.
    pub fn cloud_coverage(&self, day: f64) -> f64 {
        self.config
            .climate
            .coverage(self.config.location_seed(), day)
    }

    /// Cumulative change-event field at `day` (cached; sequential access in
    /// non-decreasing day order is incremental and cheap).
    pub fn event_field(&self, day: f64) -> Raster {
        let mut guard = self.cache.lock().expect("event cache poisoned");
        match guard.as_mut() {
            Some(cache) if cache.day <= day => {
                if cache.day < day {
                    self.events
                        .add_events_in_range(&mut cache.field, cache.day, day);
                    cache.day = day;
                }
                cache.field.clone()
            }
            _ => {
                let field = self.events.cumulative_field(day);
                *guard = Some(EventFieldCache {
                    day,
                    field: field.clone(),
                });
                field
            }
        }
    }

    /// Noise-free, cloud-free, illumination-normalized ground reflectance
    /// of one band at `day` — the scene's ground truth, used to compute
    /// true change maps.
    pub fn ground_reflectance(&self, band: Band, day: f64) -> Raster {
        let field = self.event_field(day);
        self.ground_reflectance_with_field(band, day, &field)
    }

    fn ground_reflectance_with_field(&self, band: Band, day: f64, field: &Raster) -> Raster {
        let vol = band.volatility();
        let tex_scale = texture_scale(band);
        let grain_amp = grain_scale(band);
        let cycle = self.seasonal.cycle(day);
        let snow_base = snow_reflectance(band);
        let snow_active = self.snow.extent(day) > 0.0;
        let amp = self.seasonal.amplitude();
        let tex = self.terrain.texture();
        let grain = self.terrain.grain();
        let elev = self.terrain.elevation();
        let (w, h) = (self.config.width, self.config.height);
        let mut out = Raster::new(w, h);
        for y in 0..h {
            for x in 0..w {
                let v = if snow_active && self.snow.is_snow(elev.get(x, y), day) {
                    snow_base * self.snow.albedo(x, y, day)
                } else {
                    base_reflectance(self.terrain.cover(x, y), band)
                        + tex.get(x, y) * tex_scale
                        + grain.get(x, y) * grain_amp
                        + amp.get(x, y) * cycle * vol
                        + field.get(x, y) * vol
                };
                out.set(x, y, v.clamp(0.0, 1.0));
            }
        }
        out
    }

    /// Simulates the full observation for `day`, drawing cloud coverage
    /// from the climate.
    pub fn capture(&self, day: f64) -> Capture {
        let coverage = self.cloud_coverage(day);
        self.capture_with_coverage(day, coverage)
    }

    /// Simulates the observation for `day` with an explicit cloud coverage
    /// (0.0 for a guaranteed clear capture). Used by experiments that
    /// control cloudiness.
    pub fn capture_with_coverage(&self, day: f64, coverage: f64) -> Capture {
        let seed = self.config.location_seed();
        let (w, h) = (self.config.width, self.config.height);
        let clouds = CloudField::generate(seed, day, w, h, coverage);
        let alpha = clouds.alpha();
        let (gain, offset) = self.config.illumination.condition(seed, day);
        let field = self.event_field(day);

        // Cloud shadow: the opacity field shifted diagonally, darkening
        // non-cloudy ground (§5, Figure 9 shows shadows confound naive
        // differencing).
        let shadow_shift = (self.config.width / 32).max(4);

        let mut image = MultiBandImage::new(w, h);
        for (band_tag, &band) in self.config.bands.iter().enumerate() {
            let ground = self.ground_reflectance_with_field(band, day, &field);
            let cloud_base = cloud_reflectance(band);
            let mut observed = Raster::new(w, h);
            for y in 0..h {
                for x in 0..w {
                    let g = gain * ground.get(x, y) + offset;
                    let a = alpha.get(x, y);
                    // Feathered cloud with a little internal structure.
                    let cloud_v = cloud_base * (0.85 + 0.3 * a);
                    let mut v = g * (1.0 - a) + cloud_v * a;
                    let sx = (x + shadow_shift).min(w - 1);
                    let sy = (y + shadow_shift).min(h - 1);
                    let shadow = alpha.get(sx, sy);
                    // Atmospherically-corrected products retain only a
                    // mild shadow residue.
                    v *= 1.0 - 0.12 * shadow * (1.0 - a);
                    observed.set(x, y, v);
                }
            }
            self.config
                .sensor
                .apply(&mut observed, seed, band_tag as u64 + 1, day);
            image
                .push_band(band, observed)
                .expect("bands are unique and equally sized");
        }
        Capture {
            day,
            image,
            cloud_alpha: alpha.clone(),
            cloud_fraction: clouds.fraction(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earthplus_raster::{mean_abs_diff, PlanetBand, TileGrid, TileMask};

    fn quick_scene(archetype: LocationArchetype) -> LocationScene {
        LocationScene::new(SceneConfig::quick(42, archetype))
    }

    #[test]
    fn captures_are_reproducible() {
        let a = quick_scene(LocationArchetype::River).capture(30.0);
        let b = quick_scene(LocationArchetype::River).capture(30.0);
        for (band, raster) in a.image.iter() {
            assert_eq!(raster.as_slice(), b.image.band(band).unwrap().as_slice());
        }
        assert_eq!(a.cloud_fraction, b.cloud_fraction);
    }

    #[test]
    fn event_field_cache_consistent_random_access() {
        let scene = quick_scene(LocationArchetype::Agriculture);
        let f50 = scene.event_field(50.0);
        let _f80 = scene.event_field(80.0);
        // Going backwards must rebuild correctly.
        let f50_again = scene.event_field(50.0);
        assert_eq!(f50.as_slice(), f50_again.as_slice());
    }

    #[test]
    fn clear_capture_has_no_clouds() {
        let scene = quick_scene(LocationArchetype::Forest);
        let c = scene.capture_with_coverage(10.0, 0.0);
        assert_eq!(c.cloud_fraction, 0.0);
        assert!(c.cloud_alpha.as_slice().iter().all(|&a| a == 0.0));
    }

    #[test]
    fn cloudy_capture_brightens_visible_band() {
        let scene = quick_scene(LocationArchetype::Forest);
        let clear = scene.capture_with_coverage(10.0, 0.0);
        let cloudy = scene.capture_with_coverage(10.0, 0.9);
        let band = Band::Planet(PlanetBand::Red);
        assert!(
            cloudy.image.band(band).unwrap().mean() > clear.image.band(band).unwrap().mean() + 0.1
        );
    }

    #[test]
    fn cloudy_capture_darkens_cold_band() {
        let scene = quick_scene(LocationArchetype::Forest);
        let clear = scene.capture_with_coverage(10.0, 0.0);
        let cloudy = scene.capture_with_coverage(10.0, 0.95);
        let band = Band::Planet(PlanetBand::NearInfrared);
        // Forest NIR is bright (~0.42); cold cloud signature is 0.15.
        assert!(
            cloudy.image.band(band).unwrap().mean() < clear.image.band(band).unwrap().mean() - 0.1
        );
    }

    #[test]
    fn short_gap_changes_few_tiles_long_gap_many() {
        // The core calibration target (Figure 4): with theta=0.01 the
        // changed-tile fraction grows substantially from a ~5-day gap to a
        // ~50-day gap.
        let scene = quick_scene(LocationArchetype::River);
        let band = Band::Planet(PlanetBand::Red);
        let grid = TileGrid::new(256, 256, 64).unwrap();
        let frac = |d1: f64, d2: f64| {
            let a = scene.ground_reflectance(band, d1);
            let b = scene.ground_reflectance(band, d2);
            let scores = grid.tile_mean_abs_diff(&a, &b).unwrap();
            TileMask::from_scores(&grid, &scores, 0.01).fraction_set()
        };
        // Average over several anchor days to smooth the seasonal cycle.
        let anchors = [20.0, 80.0, 140.0, 200.0, 260.0];
        let short: f64 = anchors.iter().map(|&t| frac(t, t + 5.0)).sum::<f64>() / 5.0;
        let long: f64 = anchors.iter().map(|&t| frac(t, t + 50.0)).sum::<f64>() / 5.0;
        assert!(short < 0.45, "short-gap fraction {short}");
        assert!(long > short * 1.8, "short {short} long {long}");
    }

    #[test]
    fn snowy_scene_changes_constantly() {
        let config = SceneConfig::quick(42, LocationArchetype::SnowyMountain);
        let scene = LocationScene::new(config);
        let band = Band::Planet(PlanetBand::Red);
        // Mid-winter (day 20): snow is extensive and its albedo redraws.
        let a = scene.ground_reflectance(band, 18.0);
        let b = scene.ground_reflectance(band, 21.0);
        let grid = TileGrid::new(256, 256, 64).unwrap();
        let scores = grid.tile_mean_abs_diff(&a, &b).unwrap();
        let frac = TileMask::from_scores(&grid, &scores, 0.01).fraction_set();
        assert!(frac > 0.5, "snowy changed fraction {frac}");
    }

    #[test]
    fn illumination_shifts_whole_frame() {
        let scene = LocationScene::new(
            SceneConfig::quick(42, LocationArchetype::Forest).with_sensor(SensorModel::ideal()),
        );
        let band = Band::Planet(PlanetBand::Red);
        let truth = scene.ground_reflectance(band, 10.0);
        let cap = scene.capture_with_coverage(10.0, 0.0);
        let observed = cap.image.band(band).unwrap();
        // Observed differs from ground truth (illumination applied)...
        let raw_diff = mean_abs_diff(&truth, observed).unwrap();
        assert!(raw_diff > 0.003, "illumination had no effect: {raw_diff}");
        // ...but a linear fit recovers it (it is exactly linear pre-clamp).
        let aligner = earthplus_raster::IlluminationAligner::new();
        let aligned = aligner.align(&truth, observed, None).unwrap();
        let aligned_diff = mean_abs_diff(&aligned, observed).unwrap();
        assert!(aligned_diff < raw_diff / 3.0);
    }

    #[test]
    fn capture_band_order_matches_config() {
        let scene = quick_scene(LocationArchetype::City);
        let c = scene.capture(3.0);
        assert_eq!(c.image.band_ids(), scene.config().bands);
    }

    #[test]
    fn different_locations_have_different_content() {
        let mut c1 = SceneConfig::quick(42, LocationArchetype::Forest);
        c1.location = LocationId(1);
        let mut c2 = SceneConfig::quick(42, LocationArchetype::Forest);
        c2.location = LocationId(2);
        let a = LocationScene::new(c1).capture_with_coverage(5.0, 0.0);
        let b = LocationScene::new(c2).capture_with_coverage(5.0, 0.0);
        let band = Band::Planet(PlanetBand::Red);
        assert_ne!(
            a.image.band(band).unwrap().as_slice(),
            b.image.band(band).unwrap().as_slice()
        );
    }
}
