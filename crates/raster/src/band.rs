//! Spectral band taxonomy.
//!
//! Satellite imagery is multi-band: Sentinel-2 carries 13 bands (B1–B12 plus
//! B8a) and PlanetScope Doves carry RGB + near-infrared (Table 1 and Table 2
//! of the paper). Bands differ in what they observe — and therefore in how
//! fast their content changes on cloud-free ground, which is why Earth+
//! "treats each band separately" (§5, *Handling different bands*).

use std::fmt;

/// One Sentinel-2 MSI spectral band.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Sentinel2Band {
    B1,
    B2,
    B3,
    B4,
    B5,
    B6,
    B7,
    B8,
    B8a,
    B9,
    B10,
    B11,
    B12,
}

impl Sentinel2Band {
    /// All 13 Sentinel-2 bands in conventional order.
    pub const ALL: [Sentinel2Band; 13] = [
        Sentinel2Band::B1,
        Sentinel2Band::B2,
        Sentinel2Band::B3,
        Sentinel2Band::B4,
        Sentinel2Band::B5,
        Sentinel2Band::B6,
        Sentinel2Band::B7,
        Sentinel2Band::B8,
        Sentinel2Band::B8a,
        Sentinel2Band::B9,
        Sentinel2Band::B10,
        Sentinel2Band::B11,
        Sentinel2Band::B12,
    ];

    /// Conventional short name, e.g. `"B8a"`.
    pub fn name(self) -> &'static str {
        match self {
            Sentinel2Band::B1 => "B1",
            Sentinel2Band::B2 => "B2",
            Sentinel2Band::B3 => "B3",
            Sentinel2Band::B4 => "B4",
            Sentinel2Band::B5 => "B5",
            Sentinel2Band::B6 => "B6",
            Sentinel2Band::B7 => "B7",
            Sentinel2Band::B8 => "B8",
            Sentinel2Band::B8a => "B8a",
            Sentinel2Band::B9 => "B9",
            Sentinel2Band::B10 => "B10",
            Sentinel2Band::B11 => "B11",
            Sentinel2Band::B12 => "B12",
        }
    }

    /// Center wavelength in nanometres.
    #[cfg(test)]
    fn wavelength_nm(self) -> f32 {
        match self {
            Sentinel2Band::B1 => 443.0,
            Sentinel2Band::B2 => 490.0,
            Sentinel2Band::B3 => 560.0,
            Sentinel2Band::B4 => 665.0,
            Sentinel2Band::B5 => 705.0,
            Sentinel2Band::B6 => 740.0,
            Sentinel2Band::B7 => 783.0,
            Sentinel2Band::B8 => 842.0,
            Sentinel2Band::B8a => 865.0,
            Sentinel2Band::B9 => 945.0,
            Sentinel2Band::B10 => 1375.0,
            Sentinel2Band::B11 => 1610.0,
            Sentinel2Band::B12 => 2190.0,
        }
    }
}

/// One PlanetScope (Doves) band.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum PlanetBand {
    Red,
    Green,
    Blue,
    NearInfrared,
}

impl PlanetBand {
    /// All four PlanetScope bands.
    pub const ALL: [PlanetBand; 4] = [
        PlanetBand::Blue,
        PlanetBand::Green,
        PlanetBand::Red,
        PlanetBand::NearInfrared,
    ];

    /// Conventional short name.
    pub fn name(self) -> &'static str {
        match self {
            PlanetBand::Red => "R",
            PlanetBand::Green => "G",
            PlanetBand::Blue => "B",
            PlanetBand::NearInfrared => "NIR",
        }
    }
}

/// What a band chiefly observes, which governs its temporal volatility on
/// cloud-free ground (§5, *Handling different bands*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BandKind {
    /// Visible ground reflectance (RGB): changes with actual terrestrial
    /// content — the bands Earth+ improves the most.
    VisibleGround,
    /// Vegetation red-edge / NIR bands (B5–B8a): chlorophyll-sensitive,
    /// change substantially with temperature and season.
    Vegetation,
    /// Atmospheric bands (coastal aerosol B1, water vapour B9, cirrus B10):
    /// observe the air, change little on cloud-free ground.
    Atmospheric,
    /// Short-wave infrared (B11, B12): moisture-sensitive ground bands.
    ShortWaveInfrared,
}

/// A spectral band from either supported sensor family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Band {
    /// A Sentinel-2 MSI band.
    Sentinel2(Sentinel2Band),
    /// A PlanetScope band.
    Planet(PlanetBand),
}

impl Band {
    /// Conventional short name (e.g. `"B8a"`, `"NIR"`).
    pub fn name(&self) -> &'static str {
        match self {
            Band::Sentinel2(b) => b.name(),
            Band::Planet(b) => b.name(),
        }
    }

    /// The observation class of the band.
    pub fn kind(&self) -> BandKind {
        match self {
            Band::Sentinel2(b) => match b {
                Sentinel2Band::B2 | Sentinel2Band::B3 | Sentinel2Band::B4 => {
                    BandKind::VisibleGround
                }
                Sentinel2Band::B5
                | Sentinel2Band::B6
                | Sentinel2Band::B7
                | Sentinel2Band::B8
                | Sentinel2Band::B8a => BandKind::Vegetation,
                Sentinel2Band::B1 | Sentinel2Band::B9 | Sentinel2Band::B10 => BandKind::Atmospheric,
                Sentinel2Band::B11 | Sentinel2Band::B12 => BandKind::ShortWaveInfrared,
            },
            Band::Planet(b) => match b {
                PlanetBand::Red | PlanetBand::Green | PlanetBand::Blue => BandKind::VisibleGround,
                PlanetBand::NearInfrared => BandKind::Vegetation,
            },
        }
    }

    /// Relative temporal volatility of cloud-free ground content in this
    /// band, on `[0, 1]`.
    ///
    /// Used by the scene model to reproduce the per-band heterogeneity of
    /// Figure 14: ground and vegetation bands change a lot; atmospheric
    /// bands barely change.
    pub fn volatility(&self) -> f32 {
        match self.kind() {
            BandKind::VisibleGround => 1.0,
            BandKind::Vegetation => 1.25,
            BandKind::Atmospheric => 0.15,
            BandKind::ShortWaveInfrared => 0.7,
        }
    }

    /// Whether the band carries a thermal/IR signature usable for cheap
    /// heavy-cloud detection (§5: heavy-cloud temperature "significantly
    /// differs from the nearby ground ... easily detected using the InfraRed
    /// band").
    #[cfg(test)]
    fn is_infrared(&self) -> bool {
        matches!(
            self,
            Band::Sentinel2(
                Sentinel2Band::B8
                    | Sentinel2Band::B8a
                    | Sentinel2Band::B9
                    | Sentinel2Band::B10
                    | Sentinel2Band::B11
                    | Sentinel2Band::B12
            ) | Band::Planet(PlanetBand::NearInfrared)
        )
    }

    /// All 13 Sentinel-2 bands, wrapped.
    pub fn sentinel2_all() -> Vec<Band> {
        Sentinel2Band::ALL
            .iter()
            .map(|&b| Band::Sentinel2(b))
            .collect()
    }

    /// All 4 PlanetScope bands, wrapped.
    pub fn planet_all() -> Vec<Band> {
        PlanetBand::ALL.iter().map(|&b| Band::Planet(b)).collect()
    }
}

impl fmt::Display for Band {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl From<Sentinel2Band> for Band {
    fn from(b: Sentinel2Band) -> Self {
        Band::Sentinel2(b)
    }
}

impl From<PlanetBand> for Band {
    fn from(b: PlanetBand) -> Self {
        Band::Planet(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentinel2_has_thirteen_bands() {
        assert_eq!(Band::sentinel2_all().len(), 13);
        assert_eq!(Sentinel2Band::ALL.len(), 13);
    }

    #[test]
    fn planet_has_four_bands() {
        assert_eq!(Band::planet_all().len(), 4);
    }

    #[test]
    fn atmospheric_bands_have_low_volatility() {
        let b9 = Band::Sentinel2(Sentinel2Band::B9);
        let b4 = Band::Sentinel2(Sentinel2Band::B4);
        assert!(b9.volatility() < b4.volatility());
        assert_eq!(b9.kind(), BandKind::Atmospheric);
    }

    #[test]
    fn vegetation_bands_most_volatile() {
        // §5: "vegetation bands such as B7, B8, and B8a ... sensitive to
        // temperature" change the most.
        let b8 = Band::Sentinel2(Sentinel2Band::B8);
        assert!(b8.volatility() > Band::Sentinel2(Sentinel2Band::B4).volatility());
    }

    #[test]
    fn infrared_classification() {
        assert!(Band::Sentinel2(Sentinel2Band::B11).is_infrared());
        assert!(Band::Planet(PlanetBand::NearInfrared).is_infrared());
        assert!(!Band::Sentinel2(Sentinel2Band::B2).is_infrared());
        assert!(!Band::Planet(PlanetBand::Red).is_infrared());
    }

    #[test]
    fn names_are_unique_within_sensor() {
        let names: std::collections::HashSet<_> =
            Band::sentinel2_all().iter().map(|b| b.name()).collect();
        assert_eq!(names.len(), 13);
    }

    #[test]
    fn display_matches_name() {
        let b = Band::Sentinel2(Sentinel2Band::B8a);
        assert_eq!(b.to_string(), "B8a");
    }

    #[test]
    fn wavelengths_increase_roughly_with_index() {
        assert!(Sentinel2Band::B1.wavelength_nm() < Sentinel2Band::B12.wavelength_nm());
    }
}
