//! Geographic identifiers and coverage arithmetic.
//!
//! The simulator addresses the Earth's surface as a set of discrete
//! *locations* (photo areas): one location corresponds to one full satellite
//! capture footprint, as in the paper's datasets (1600 km² Sentinel-2 cells,
//! 36 km² Planet cells — Table 2).

use std::fmt;

/// Identifies one geographic location (capture footprint) in a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LocationId(pub u32);

impl LocationId {
    /// Letter label used in Figure 14 ("A".."K" for the 11 Sentinel-2
    /// locations); locations beyond 26 wrap with a numeric suffix.
    pub fn label(&self) -> String {
        let idx = self.0 as usize;
        let letter = (b'A' + (idx % 26) as u8) as char;
        if idx < 26 {
            letter.to_string()
        } else {
            format!("{letter}{}", idx / 26)
        }
    }
}

impl fmt::Display for LocationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "loc{}", self.0)
    }
}

impl From<u32> for LocationId {
    fn from(v: u32) -> Self {
        LocationId(v)
    }
}

/// Physical description of a location's capture footprint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoCell {
    /// Location identifier.
    pub id: LocationId,
    /// Ground sampling distance in metres per pixel.
    pub gsd_m: f64,
    /// Capture width in pixels.
    pub width_px: usize,
    /// Capture height in pixels.
    pub height_px: usize,
}

impl GeoCell {
    /// Creates a cell description.
    pub fn new(id: LocationId, gsd_m: f64, width_px: usize, height_px: usize) -> Self {
        GeoCell {
            id,
            gsd_m,
            width_px,
            height_px,
        }
    }

    /// Covered ground area in square kilometres.
    pub fn area_km2(&self) -> f64 {
        let w_km = self.width_px as f64 * self.gsd_m / 1000.0;
        let h_km = self.height_px as f64 * self.gsd_m / 1000.0;
        w_km * h_km
    }

    /// Total number of pixels per band.
    #[cfg(test)]
    fn pixel_count(&self) -> usize {
        self.width_px * self.height_px
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_figure_14() {
        assert_eq!(LocationId(0).label(), "A");
        assert_eq!(LocationId(10).label(), "K");
        assert_eq!(LocationId(26).label(), "A1");
    }

    #[test]
    fn doves_footprint_area() {
        // Table 1: 6600x4400 at 3.7 m GSD is about 400 km^2 (§2.2 footnote).
        let cell = GeoCell::new(LocationId(0), 3.7, 6600, 4400);
        let area = cell.area_km2();
        assert!((area - 397.6).abs() < 1.0, "area was {area}");
    }

    #[test]
    fn sentinel2_location_area() {
        // Table 2: 1600 km^2 locations at 10 m GSD -> 4000x4000 px.
        let cell = GeoCell::new(LocationId(3), 10.0, 4000, 4000);
        assert!((cell.area_km2() - 1600.0).abs() < 1e-9);
        assert_eq!(cell.pixel_count(), 16_000_000);
    }

    #[test]
    fn display_and_ordering() {
        assert_eq!(LocationId(7).to_string(), "loc7");
        assert!(LocationId(1) < LocationId(2));
    }
}
