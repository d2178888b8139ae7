//! Multi-band (multi-spectral) imagery.

use crate::{Band, Raster, RasterError};
use std::fmt;

/// An ordered set of co-registered single-band rasters: one satellite
/// capture.
///
/// All bands share the same pixel dimensions. Earth+ "treats each band
/// separately" (§5), so most of the pipeline operates per-[`Raster`]; this
/// type carries them together with their [`Band`] identities.
///
/// # Example
///
/// ```
/// use earthplus_raster::{Band, MultiBandImage, PlanetBand, Raster};
///
/// # fn main() -> Result<(), earthplus_raster::RasterError> {
/// let mut image = MultiBandImage::new(64, 64);
/// image.push_band(Band::Planet(PlanetBand::Red), Raster::filled(64, 64, 0.3))?;
/// assert_eq!(image.band_count(), 1);
/// assert!(image.band(Band::Planet(PlanetBand::Red)).is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct MultiBandImage {
    width: usize,
    height: usize,
    bands: Vec<(Band, Raster)>,
}

impl MultiBandImage {
    /// Creates an empty multi-band image with fixed pixel dimensions.
    pub fn new(width: usize, height: usize) -> Self {
        MultiBandImage {
            width,
            height,
            bands: Vec::new(),
        }
    }

    /// Width in pixels (shared by all bands).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels (shared by all bands).
    pub fn height(&self) -> usize {
        self.height
    }

    /// `(width, height)` pair.
    pub fn dimensions(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Number of bands currently stored.
    pub fn band_count(&self) -> usize {
        self.bands.len()
    }

    /// Whether no bands are stored.
    pub fn is_empty(&self) -> bool {
        self.bands.is_empty()
    }

    /// Appends a band.
    ///
    /// # Errors
    ///
    /// Returns [`RasterError::DimensionMismatch`] if the raster does not
    /// match the image dimensions, or [`RasterError::InvalidDimensions`] if
    /// the band is already present.
    pub fn push_band(&mut self, band: Band, raster: Raster) -> Result<(), RasterError> {
        if raster.dimensions() != (self.width, self.height) {
            return Err(RasterError::DimensionMismatch {
                left: raster.dimensions(),
                right: (self.width, self.height),
            });
        }
        if self.bands.iter().any(|(b, _)| *b == band) {
            return Err(RasterError::InvalidDimensions {
                reason: format!("band {band} already present"),
            });
        }
        self.bands.push((band, raster));
        Ok(())
    }

    /// The raster for a band, if present.
    pub fn band(&self, band: Band) -> Option<&Raster> {
        self.bands.iter().find(|(b, _)| *b == band).map(|(_, r)| r)
    }

    /// The raster for a band.
    ///
    /// # Errors
    ///
    /// Returns [`RasterError::MissingBand`] when the band is absent.
    pub fn require_band(&self, band: Band) -> Result<&Raster, RasterError> {
        self.band(band).ok_or_else(|| RasterError::MissingBand {
            band: band.name().to_owned(),
        })
    }

    /// The list of bands in storage order.
    pub fn band_ids(&self) -> Vec<Band> {
        self.bands.iter().map(|(b, _)| *b).collect()
    }

    /// Iterates over `(band, raster)` pairs in storage order.
    pub fn iter(&self) -> impl Iterator<Item = (Band, &Raster)> + '_ {
        self.bands.iter().map(|(b, r)| (*b, r))
    }

    /// Applies `f` to every band, producing a new image with the same band
    /// set.
    #[cfg(test)]
    fn map_bands<F>(&self, mut f: F) -> Result<MultiBandImage, RasterError>
    where
        F: FnMut(Band, &Raster) -> Result<Raster, RasterError>,
    {
        let mut out = MultiBandImage::new(self.width, self.height);
        for (band, raster) in &self.bands {
            let mapped = f(*band, raster)?;
            // Allow f to change resolution uniformly: adopt the first
            // result's dimensions.
            if out.is_empty() {
                out.width = mapped.width();
                out.height = mapped.height();
            }
            out.push_band(*band, mapped)?;
        }
        Ok(out)
    }

    /// Total number of samples across all bands.
    #[cfg(test)]
    fn total_samples(&self) -> usize {
        self.bands.len() * self.width * self.height
    }

    /// Raw size in bytes assuming `bits_per_sample` storage (e.g. 12-bit
    /// sensor words), rounded up to whole bytes overall.
    #[cfg(test)]
    fn raw_size_bytes(&self, bits_per_sample: u32) -> u64 {
        (self.total_samples() as u64 * bits_per_sample as u64).div_ceil(8)
    }
}

impl fmt::Debug for MultiBandImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MultiBandImage")
            .field("width", &self.width)
            .field("height", &self.height)
            .field("bands", &self.band_ids())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PlanetBand, Sentinel2Band};

    #[test]
    fn push_and_lookup() {
        let mut img = MultiBandImage::new(8, 8);
        img.push_band(Band::Planet(PlanetBand::Red), Raster::filled(8, 8, 0.1))
            .unwrap();
        img.push_band(Band::Planet(PlanetBand::Green), Raster::filled(8, 8, 0.2))
            .unwrap();
        assert_eq!(img.band_count(), 2);
        assert_eq!(
            img.band(Band::Planet(PlanetBand::Green)).unwrap().get(0, 0),
            0.2
        );
        assert!(img.band(Band::Planet(PlanetBand::Blue)).is_none());
    }

    #[test]
    fn rejects_dimension_mismatch() {
        let mut img = MultiBandImage::new(8, 8);
        let err = img
            .push_band(Band::Planet(PlanetBand::Red), Raster::filled(4, 4, 0.0))
            .unwrap_err();
        assert!(matches!(err, RasterError::DimensionMismatch { .. }));
    }

    #[test]
    fn rejects_duplicate_band() {
        let mut img = MultiBandImage::new(4, 4);
        img.push_band(Band::Planet(PlanetBand::Red), Raster::new(4, 4))
            .unwrap();
        assert!(img
            .push_band(Band::Planet(PlanetBand::Red), Raster::new(4, 4))
            .is_err());
    }

    #[test]
    fn require_band_errors_when_absent() {
        let img = MultiBandImage::new(4, 4);
        let err = img
            .require_band(Band::Sentinel2(Sentinel2Band::B9))
            .unwrap_err();
        assert!(matches!(err, RasterError::MissingBand { .. }));
    }

    #[test]
    fn map_bands_preserves_band_set() {
        let mut img = MultiBandImage::new(8, 8);
        for b in Band::planet_all() {
            img.push_band(b, Raster::filled(8, 8, 0.5)).unwrap();
        }
        let doubled = img.map_bands(|_, r| Ok(r.map(|v| v * 2.0))).unwrap();
        assert_eq!(doubled.band_ids(), img.band_ids());
        assert_eq!(
            doubled
                .band(Band::Planet(PlanetBand::Red))
                .unwrap()
                .get(0, 0),
            1.0
        );
    }

    #[test]
    fn map_bands_can_change_resolution() {
        let mut img = MultiBandImage::new(8, 8);
        for b in Band::planet_all() {
            img.push_band(b, Raster::filled(8, 8, 0.5)).unwrap();
        }
        let small = img.map_bands(|_, r| crate::downsample_box(r, 2)).unwrap();
        assert_eq!(small.dimensions(), (4, 4));
        assert_eq!(small.band_count(), 4);
    }

    #[test]
    fn raw_size_accounts_for_bit_depth() {
        let mut img = MultiBandImage::new(100, 100);
        for b in Band::planet_all() {
            img.push_band(b, Raster::new(100, 100)).unwrap();
        }
        // 4 bands x 10_000 px x 12 bits = 480_000 bits = 60_000 bytes.
        assert_eq!(img.raw_size_bytes(12), 60_000);
    }
}
