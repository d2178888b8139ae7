//! Terrain synthesis and land-cover classification.
//!
//! The rich-content dataset of the paper samples Washington State because it
//! "contains a wide variety of geographical contexts, including fluvial
//! landscapes, agricultural areas with varied irrigation systems,
//! mountainous regions with large elevation changes" (§6.1, Figure 10).
//! [`LocationArchetype`] selects which of those contexts dominates a
//! location; [`TerrainMap`] synthesizes elevation/moisture fields and
//! classifies every pixel into a [`LandCover`] class.

use crate::noise::{fbm2, lattice_unit};
use crate::strips::{render_blocks, stitch};
use earthplus_raster::{available_cores, Raster};

/// Dominant geographic context of a location (Figure 10 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LocationArchetype {
    /// Fluvial landscape: rivers cutting through mixed vegetation.
    River,
    /// Dense forest.
    Forest,
    /// High-relief mountains (rock, alpine meadow, snow caps).
    Mountain,
    /// Irrigated agriculture (field mosaics that rotate crops).
    Agriculture,
    /// Urban fabric.
    City,
    /// Coastline (the Planet dataset location is coastal, Figure 10f).
    Coastal,
    /// Mountain terrain that is heavily snow-covered in winter and spring —
    /// the paper's locations H and D, where "snow albedo ... is constantly
    /// changing" and Earth+ barely improves (Figure 14).
    SnowyMountain,
}

impl LocationArchetype {
    /// All archetypes, used to assemble varied datasets.
    pub const ALL: [LocationArchetype; 7] = [
        LocationArchetype::River,
        LocationArchetype::Forest,
        LocationArchetype::Mountain,
        LocationArchetype::Agriculture,
        LocationArchetype::City,
        LocationArchetype::Coastal,
        LocationArchetype::SnowyMountain,
    ];

    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            LocationArchetype::River => "river",
            LocationArchetype::Forest => "forest",
            LocationArchetype::Mountain => "mountain",
            LocationArchetype::Agriculture => "agriculture",
            LocationArchetype::City => "city",
            LocationArchetype::Coastal => "coastal",
            LocationArchetype::SnowyMountain => "snowy-mountain",
        }
    }
}

/// Per-pixel land-cover class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LandCover {
    /// Open water (rivers, lakes, sea).
    Water,
    /// Forest canopy.
    Forest,
    /// Cropland; rotates and gets harvested (high event rate).
    Agriculture,
    /// Built-up urban area.
    Urban,
    /// Bare rock / high mountain terrain.
    Rock,
    /// Grass / shrub land.
    Grassland,
}

impl LandCover {
    /// Index used to pack covers into a byte raster.
    pub fn index(self) -> u8 {
        match self {
            LandCover::Water => 0,
            LandCover::Forest => 1,
            LandCover::Agriculture => 2,
            LandCover::Urban => 3,
            LandCover::Rock => 4,
            LandCover::Grassland => 5,
        }
    }

    /// Inverse of [`LandCover::index`].
    ///
    /// # Panics
    ///
    /// Panics on an index greater than 5.
    pub fn from_index(i: u8) -> Self {
        match i {
            0 => LandCover::Water,
            1 => LandCover::Forest,
            2 => LandCover::Agriculture,
            3 => LandCover::Urban,
            4 => LandCover::Rock,
            5 => LandCover::Grassland,
            _ => panic!("invalid land cover index {i}"),
        }
    }
}

/// One row block of a terrain render.
struct TerrainRows {
    elevation: Vec<f32>,
    texture: Vec<f32>,
    grain: Vec<f32>,
    cover: Vec<u8>,
}

impl TerrainRows {
    fn with_capacity(samples: usize) -> Self {
        TerrainRows {
            elevation: Vec::with_capacity(samples),
            texture: Vec::with_capacity(samples),
            grain: Vec::with_capacity(samples),
            cover: Vec::with_capacity(samples),
        }
    }
}

/// Synthesized static terrain for one location.
///
/// Fields are deterministic in `(seed, archetype, dimensions)`.
#[derive(Debug, Clone)]
pub struct TerrainMap {
    width: usize,
    height: usize,
    archetype: LocationArchetype,
    /// Normalized elevation in `[0, 1]`.
    elevation: Raster,
    /// Land cover index per pixel.
    cover: Vec<u8>,
    /// Fine-grained albedo texture in `[-1, 1]` (scaled on use).
    texture: Raster,
    /// Per-pixel terrain grain in `[-0.5, 0.5]`: spatially white,
    /// temporally static micro-texture (rock speckle, field rows, canopy
    /// gaps). It is what makes single-image coding expensive and what
    /// reference-based encoding amortizes — real imagery at these GSDs is
    /// full of it.
    grain: Raster,
}

impl TerrainMap {
    /// Synthesizes terrain for a location.
    pub fn generate(seed: u64, archetype: LocationArchetype, width: usize, height: usize) -> Self {
        Self::generate_in_strips(seed, archetype, width, height, available_cores())
    }

    /// [`TerrainMap::generate`], rendered in `strips` row blocks.
    pub(crate) fn generate_in_strips(
        seed: u64,
        archetype: LocationArchetype,
        width: usize,
        height: usize,
        strips: usize,
    ) -> Self {
        let scale = 1.0 / width.max(height) as f32;
        // One pass renders every field: the land cover classifies each
        // pixel by its elevation and moisture as they are rendered.
        let mut blocks = render_blocks(height, strips, move |rows| {
            let mut block = TerrainRows::with_capacity(rows.len() * width);
            for y in rows {
                for x in 0..width {
                    let fx = x as f32 * scale;
                    let fy = y as f32 * scale;
                    let e = fbm2(seed ^ 0x11, fx, fy, 0, 5, 3.0);
                    let m = fbm2(seed ^ 0x22, fx, fy, 0, 4, 2.0);
                    block.elevation.push(e);
                    block
                        .texture
                        .push(fbm2(seed ^ 0x33, fx, fy, 0, 4, 24.0) * 2.0 - 1.0);
                    // Band-limited micro-texture (~2.5 px correlation) plus
                    // a small white component: expensive to code at low
                    // bitrates but with a real rate-distortion slope, like
                    // actual ground texture.
                    let smooth = crate::noise::value_noise2(
                        seed ^ 0x6A11,
                        x as f32 / 2.5,
                        y as f32 / 2.5,
                        0,
                    ) - 0.5;
                    let white = lattice_unit(seed ^ 0x6A12, x as i64, y as i64, 0) - 0.5;
                    block.grain.push(0.75 * smooth + 0.25 * white);
                    block
                        .cover
                        .push(classify(seed, archetype, x, y, width, height, e, m).index());
                }
            }
            block
        });
        let mut plane = |field: fn(&mut TerrainRows) -> &mut Vec<f32>| {
            let rows = blocks.iter_mut().map(|b| std::mem::take(field(b)));
            Raster::from_vec(width, height, stitch(rows)).expect("plane matches its dimensions")
        };
        let elevation = plane(|b| &mut b.elevation);
        let texture = plane(|b| &mut b.texture);
        let grain = plane(|b| &mut b.grain);
        let cover = stitch(blocks.into_iter().map(|b| b.cover));
        TerrainMap {
            width,
            height,
            archetype,
            elevation,
            cover,
            texture,
            grain,
        }
    }

    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// The archetype this terrain was generated for.
    pub fn archetype(&self) -> LocationArchetype {
        self.archetype
    }

    /// Normalized elevation field.
    pub fn elevation(&self) -> &Raster {
        &self.elevation
    }

    /// Albedo texture field in `[-1, 1]`.
    pub fn texture(&self) -> &Raster {
        &self.texture
    }

    /// Static white micro-texture in `[-0.5, 0.5]`.
    pub fn grain(&self) -> &Raster {
        &self.grain
    }

    /// Land cover at a pixel.
    ///
    /// # Panics
    ///
    /// Panics when the coordinate is out of bounds.
    #[inline]
    pub fn cover(&self, x: usize, y: usize) -> LandCover {
        LandCover::from_index(self.cover[y * self.width + x])
    }

    /// Land-cover indices ([`LandCover::index`]), row-major.
    pub(crate) fn cover_indices(&self) -> &[u8] {
        &self.cover
    }

    /// Fraction of pixels with the given cover.
    pub fn cover_fraction(&self, cover: LandCover) -> f64 {
        let hits = self.cover.iter().filter(|&&c| c == cover.index()).count();
        hits as f64 / self.cover.len() as f64
    }
}

#[allow(clippy::too_many_arguments)]
fn classify(
    seed: u64,
    archetype: LocationArchetype,
    x: usize,
    y: usize,
    width: usize,
    height: usize,
    elevation: f32,
    moisture: f32,
) -> LandCover {
    let scale = 1.0 / width.max(height) as f32;
    let fx = x as f32 * scale;
    let fy = y as f32 * scale;
    match archetype {
        LocationArchetype::River => {
            // A meandering river: narrow band where a ridged noise is small.
            let channel = (fbm2(seed ^ 0x44, fx * 0.7, fy * 0.7, 0, 3, 2.0) - 0.5).abs();
            if channel < 0.03 || elevation < 0.18 {
                LandCover::Water
            } else if moisture > 0.55 {
                LandCover::Forest
            } else if moisture > 0.4 {
                LandCover::Agriculture
            } else {
                LandCover::Grassland
            }
        }
        LocationArchetype::Forest => {
            if elevation < 0.12 {
                LandCover::Water
            } else if moisture > 0.25 {
                LandCover::Forest
            } else {
                LandCover::Grassland
            }
        }
        LocationArchetype::Mountain | LocationArchetype::SnowyMountain => {
            if elevation > 0.72 {
                LandCover::Rock
            } else if elevation > 0.5 {
                LandCover::Grassland
            } else if moisture > 0.5 {
                LandCover::Forest
            } else {
                LandCover::Grassland
            }
        }
        LocationArchetype::Agriculture => {
            // Field mosaic: coarse Voronoi-like cells of cropland.
            if elevation < 0.1 {
                LandCover::Water
            } else {
                let cell = lattice_unit(
                    seed ^ 0x55,
                    (fx * 12.0).floor() as i64,
                    (fy * 12.0).floor() as i64,
                    0,
                );
                if cell < 0.75 {
                    LandCover::Agriculture
                } else if cell < 0.85 {
                    LandCover::Grassland
                } else {
                    LandCover::Forest
                }
            }
        }
        LocationArchetype::City => {
            let density = fbm2(seed ^ 0x66, fx * 1.2, fy * 1.2, 0, 3, 2.0);
            if elevation < 0.1 {
                LandCover::Water
            } else if density > 0.45 {
                LandCover::Urban
            } else if density > 0.35 {
                LandCover::Agriculture
            } else {
                LandCover::Grassland
            }
        }
        LocationArchetype::Coastal => {
            // Sea occupies the top of the frame: a height field tilted so
            // low rows sit below sea level.
            let coast = 0.5 * elevation + 0.5 * fy;
            if coast < 0.38 {
                LandCover::Water
            } else if moisture > 0.55 {
                LandCover::Forest
            } else if coast < 0.45 {
                LandCover::Grassland
            } else {
                LandCover::Agriculture
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = TerrainMap::generate(99, LocationArchetype::River, 64, 64);
        let b = TerrainMap::generate(99, LocationArchetype::River, 64, 64);
        assert_eq!(a.elevation().as_slice(), b.elevation().as_slice());
        assert_eq!(a.cover(10, 10), b.cover(10, 10));
    }

    #[test]
    fn different_seeds_differ() {
        let a = TerrainMap::generate(1, LocationArchetype::Forest, 64, 64);
        let b = TerrainMap::generate(2, LocationArchetype::Forest, 64, 64);
        assert_ne!(a.elevation().as_slice(), b.elevation().as_slice());
    }

    #[test]
    fn river_archetype_contains_water() {
        let t = TerrainMap::generate(7, LocationArchetype::River, 128, 128);
        assert!(t.cover_fraction(LandCover::Water) > 0.01);
    }

    #[test]
    fn forest_archetype_mostly_forest() {
        let t = TerrainMap::generate(7, LocationArchetype::Forest, 128, 128);
        assert!(t.cover_fraction(LandCover::Forest) > 0.4);
    }

    #[test]
    fn agriculture_archetype_mostly_cropland() {
        let t = TerrainMap::generate(7, LocationArchetype::Agriculture, 128, 128);
        assert!(t.cover_fraction(LandCover::Agriculture) > 0.4);
    }

    #[test]
    fn city_archetype_has_urban() {
        let t = TerrainMap::generate(7, LocationArchetype::City, 128, 128);
        assert!(t.cover_fraction(LandCover::Urban) > 0.2);
    }

    #[test]
    fn coastal_archetype_has_sea() {
        let t = TerrainMap::generate(7, LocationArchetype::Coastal, 128, 128);
        assert!(t.cover_fraction(LandCover::Water) > 0.15);
    }

    #[test]
    fn mountain_has_rock_at_altitude() {
        let t = TerrainMap::generate(7, LocationArchetype::Mountain, 128, 128);
        assert!(t.cover_fraction(LandCover::Rock) > 0.02);
    }

    #[test]
    fn cover_index_roundtrip() {
        for c in [
            LandCover::Water,
            LandCover::Forest,
            LandCover::Agriculture,
            LandCover::Urban,
            LandCover::Rock,
            LandCover::Grassland,
        ] {
            assert_eq!(LandCover::from_index(c.index()), c);
        }
    }

    #[test]
    fn archetype_names_unique() {
        let names: std::collections::HashSet<_> =
            LocationArchetype::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), LocationArchetype::ALL.len());
    }
}
