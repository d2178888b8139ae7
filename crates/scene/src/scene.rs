//! The top-level scene model: deterministic synthetic Earth observation.

use crate::clouds::{CloudClimate, CloudField};
use crate::illumination::IlluminationConfig;
use crate::reflectance::{
    base_reflectance, cloud_reflectance, grain_scale, snow_reflectance, texture_scale,
};
use crate::sensor::SensorModel;
use crate::strips::{raster_from_fn, render_strips, strip_count};
use crate::temporal::{EventSchedule, SeasonalModel, SnowModel};
use crate::terrain::{LandCover, LocationArchetype, TerrainMap};
use earthplus_raster::{Band, LocationId, MultiBandImage, Raster};
use std::ops::Range;
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
    /// Ground sampling distance, metres per pixel. Nothing in the
    /// generator reads it yet: clouds, terrain, seasonal drift and change
    /// events are all laid out in pixels or relative to the frame.
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
    /// Row strips every per-pixel render of this scene is cut into.
    strips: usize,
}

impl LocationScene {
    /// Synthesizes the scene's static fields, rendering them on all
    /// available cores.
    pub fn new(config: SceneConfig) -> Self {
        Self::in_strips(config, strip_count())
    }

    /// [`LocationScene::new`] for a scene that renders everything, its
    /// static fields included, in `strips` row strips.
    pub(crate) fn in_strips(config: SceneConfig, strips: usize) -> Self {
        let seed = config.location_seed();
        let terrain = TerrainMap::generate_in_strips(
            seed,
            config.archetype,
            config.width,
            config.height,
            strips,
        );
        let seasonal = SeasonalModel::from_terrain_in_strips(seed, &terrain, strips);
        let snow = SnowModel::new(seed, config.snow_max_extent, config.snow_peak_day);
        let events = EventSchedule::generate(seed, &terrain, config.horizon_days);
        LocationScene {
            config,
            terrain,
            seasonal,
            snow,
            events,
            cache: Mutex::new(None),
            strips,
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
        let ground = Ground::new(self, day, &field);
        let band = GroundBand::new(band);
        let (w, h) = (self.config.width, self.config.height);
        raster_from_fn(w, h, self.strips, |x, y| band.reflectance(&ground.at(x, y)))
    }

    /// Simulates the full observation for `day`, drawing cloud coverage
    /// from the climate.
    ///
    /// Every band is rendered on all available cores, in row strips. Each
    /// sample is a pure function of the scene seed, the pixel and the day,
    /// so the capture is bit-identical whatever the core count.
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
        let cloud_fraction = clouds.fraction();
        let alpha = clouds.into_alpha();
        let (gain, offset) = self.config.illumination.condition(seed, day);
        let field = self.event_field(day);
        let frame = CaptureFrame {
            ground: Ground::new(self, day, &field),
            bands: self
                .config
                .bands
                .iter()
                .enumerate()
                .map(|(band_tag, &band)| CaptureBand {
                    ground: GroundBand::new(band),
                    cloud: cloud_reflectance(band),
                    noise_key: SensorModel::noise_key(seed, band_tag as u64 + 1),
                })
                .collect(),
            alpha: alpha.as_slice(),
            gain,
            offset,
            // Cloud shadow: the opacity field shifted diagonally, darkening
            // non-cloudy ground (§5, Figure 9 shows shadows confound naive
            // differencing).
            shadow_shift: (w / 32).max(4),
            day_idx: day.floor() as i64,
        };
        let mut planes: Vec<Vec<f32>> =
            self.config.bands.iter().map(|_| vec![0.0; w * h]).collect();
        let mut strips: Vec<&mut [f32]> = planes.iter_mut().map(|p| &mut p[..]).collect();
        render_strips(w, h, &mut strips, self.strips, |rows, strip| {
            frame.render_rows(rows, strip)
        });

        let mut image = MultiBandImage::new(w, h);
        for (&band, plane) in self.config.bands.iter().zip(planes) {
            let observed = Raster::from_vec(w, h, plane).expect("plane matches the frame");
            image
                .push_band(band, observed)
                .expect("bands are unique and equally sized");
        }
        Capture {
            day,
            image,
            cloud_alpha: alpha,
            cloud_fraction,
        }
    }
}

/// What the ground at one pixel shows on one day, before a band weighs it.
enum Surface {
    /// Snow, at this albedo factor.
    Snow(f32),
    /// Snow-free land.
    Land {
        /// [`LandCover::index`] of the pixel.
        cover: usize,
        /// Albedo texture, `[-1, 1]`.
        texture: f32,
        /// Terrain grain, `[-0.5, 0.5]`.
        grain: f32,
        /// Seasonal amplitude times the day's cycle value.
        seasonal: f32,
        /// Cumulative change-event offset.
        event: f32,
    },
}

/// The ground of one scene on one day.
struct Ground<'a> {
    scene: &'a LocationScene,
    day: f64,
    cycle: f32,
    snow_extent: f32,
    events: &'a [f32],
}

impl<'a> Ground<'a> {
    fn new(scene: &'a LocationScene, day: f64, events: &'a Raster) -> Self {
        Ground {
            scene,
            day,
            cycle: scene.seasonal.cycle(day),
            snow_extent: scene.snow.extent(day),
            events: events.as_slice(),
        }
    }

    /// The surface at pixel `(x, y)`.
    #[inline]
    fn at(&self, x: usize, y: usize) -> Surface {
        let terrain = &self.scene.terrain;
        let i = y * terrain.width() + x;
        if SnowModel::is_snow(terrain.elevation().as_slice()[i], self.snow_extent) {
            Surface::Snow(self.scene.snow.albedo(x, y, self.day))
        } else {
            Surface::Land {
                cover: terrain.cover_indices()[i] as usize,
                texture: terrain.texture().as_slice()[i],
                grain: terrain.grain().as_slice()[i],
                seasonal: self.scene.seasonal.amplitude().as_slice()[i] * self.cycle,
                event: self.events[i],
            }
        }
    }
}

/// How one band sees the ground.
struct GroundBand {
    /// Base reflectance per [`LandCover::index`].
    base: [f32; 6],
    texture: f32,
    grain: f32,
    volatility: f32,
    snow: f32,
}

impl GroundBand {
    fn new(band: Band) -> Self {
        GroundBand {
            base: std::array::from_fn(|i| base_reflectance(LandCover::from_index(i as u8), band)),
            texture: texture_scale(band),
            grain: grain_scale(band),
            volatility: band.volatility(),
            snow: snow_reflectance(band),
        }
    }

    /// Ground reflectance of `surface` in this band, in `[0, 1]`.
    #[inline]
    fn reflectance(&self, surface: &Surface) -> f32 {
        let v = match *surface {
            Surface::Snow(albedo) => self.snow * albedo,
            Surface::Land {
                cover,
                texture,
                grain,
                seasonal,
                event,
            } => {
                self.base[cover]
                    + texture * self.texture
                    + grain * self.grain
                    + seasonal * self.volatility
                    + event * self.volatility
            }
        };
        v.clamp(0.0, 1.0)
    }
}

/// One band of a capture.
struct CaptureBand {
    ground: GroundBand,
    /// Cloud-top reflectance.
    cloud: f32,
    /// The band's [`SensorModel::noise_key`].
    noise_key: u64,
}

/// Everything one capture's samples depend on besides the pixel.
struct CaptureFrame<'a> {
    ground: Ground<'a>,
    bands: Vec<CaptureBand>,
    /// Cloud opacity, row-major.
    alpha: &'a [f32],
    gain: f32,
    offset: f32,
    shadow_shift: usize,
    day_idx: i64,
}

impl CaptureFrame<'_> {
    /// Renders rows `rows` of every band: `strip[b]` holds those rows of
    /// band `b`.
    fn render_rows(&self, rows: Range<usize>, strip: &mut [&mut [f32]]) {
        let config = &self.ground.scene.config;
        let (w, h) = (config.width, config.height);
        let mut i = 0;
        for y in rows {
            let shadow_row = (y + self.shadow_shift).min(h - 1) * w;
            for x in 0..w {
                let surface = self.ground.at(x, y);
                let a = self.alpha[y * w + x];
                let shadow = self.alpha[shadow_row + (x + self.shadow_shift).min(w - 1)];
                for (plane, band) in strip.iter_mut().zip(&self.bands) {
                    plane[i] = self.observe(band, &surface, a, shadow, x, y);
                }
                i += 1;
            }
        }
    }

    /// One observed sample: `surface` seen in `band` under the capture's
    /// illumination, behind cloud opacity `a` and over cloud shadow
    /// `shadow`, then through the sensor's noise and quantization.
    #[inline]
    fn observe(
        &self,
        band: &CaptureBand,
        surface: &Surface,
        a: f32,
        shadow: f32,
        x: usize,
        y: usize,
    ) -> f32 {
        let g = self.gain * band.ground.reflectance(surface) + self.offset;
        // Feathered cloud with a little internal structure.
        let cloud_v = band.cloud * (0.85 + 0.3 * a);
        let mut v = g * (1.0 - a) + cloud_v * a;
        // Atmospherically-corrected products retain only a mild shadow
        // residue.
        v *= 1.0 - 0.12 * shadow * (1.0 - a);
        self.ground
            .scene
            .config
            .sensor
            .observe(v, band.noise_key, x, y, self.day_idx)
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

    fn bits(raster: &Raster) -> Vec<u32> {
        raster.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn renders_are_independent_of_strip_count() {
        // The public path cuts renders into one strip per host core; the
        // same bits must come out of any other cut, so output does not
        // depend on the machine.
        for (w, h) in [(67, 41), (37, 1), (1, 37)] {
            let config = SceneConfig::new(
                42,
                LocationId(5),
                LocationArchetype::SnowyMountain,
                w,
                h,
                Band::sentinel2_all(),
            );
            let public = LocationScene::new(config.clone());
            let expected = public.capture_with_coverage(15.0, 0.4);
            for strips in [1, 2, 3, 7, h + 1] {
                let scene = LocationScene::in_strips(config.clone(), strips);
                let (terrain, public_terrain) = (scene.terrain(), public.terrain());
                assert_eq!(bits(terrain.elevation()), bits(public_terrain.elevation()));
                assert_eq!(bits(terrain.texture()), bits(public_terrain.texture()));
                assert_eq!(bits(terrain.grain()), bits(public_terrain.grain()));
                assert_eq!(terrain.cover_indices(), public_terrain.cover_indices());
                assert_eq!(
                    bits(scene.seasonal.amplitude()),
                    bits(public.seasonal.amplitude())
                );
                let capture = scene.capture_with_coverage(15.0, 0.4);
                for (band, raster) in capture.image.iter() {
                    let context = format!("{band} in {strips} strips at {w}x{h}");
                    assert_eq!(
                        bits(raster),
                        bits(expected.image.band(band).unwrap()),
                        "{context}"
                    );
                    assert_eq!(
                        bits(&scene.ground_reflectance(band, 15.0)),
                        bits(&public.ground_reflectance(band, 15.0)),
                        "{context}"
                    );
                }
                assert_eq!(bits(&capture.cloud_alpha), bits(&expected.cloud_alpha));
                assert_eq!(capture.cloud_fraction, expected.cloud_fraction);
            }
        }
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
