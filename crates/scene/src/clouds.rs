//! Cloud climate and cloud-field synthesis.
//!
//! Two statistics from the paper calibrate this module:
//!
//! * "on average, 2/3 of the earth is covered by clouds" (§3) — heavy cover
//!   dominates the coverage distribution;
//! * with per-visit cloud draws, the most recent `<1 %`-cloud reference seen
//!   by a single Doves satellite (revisit 10–15 days) averages ~51 days old,
//!   while a ~daily-visiting constellation gets one every ~4.2 days
//!   (Figure 5) — implying a per-visit probability of a usable (cloud-free)
//!   capture of roughly 0.24.
//!
//! [`CloudClimate`] samples a deterministic per-(seed, day) coverage
//! fraction from a three-regime mixture (clear / partly cloudy / overcast)
//! that matches both statistics; [`CloudField`] turns a coverage fraction
//! into a smooth opacity raster by thresholding coarse fractal noise.

use crate::noise::{fbm2, hash3, hash_unit};
use earthplus_raster::{upsample_bilinear, Raster};

/// Parameters of the three-regime cloud coverage mixture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CloudClimate {
    /// Probability of an (almost) clear sky, coverage in `[0, clear_max)`.
    pub clear_prob: f64,
    /// Upper coverage bound of the clear regime (must stay below the 1 %
    /// reference-eligibility bar).
    pub clear_max: f64,
    /// Probability of partly-cloudy skies, coverage in `[clear_max, 0.5)`.
    pub partial_prob: f64,
    /// Overcast regime (remaining probability): coverage in
    /// `[heavy_min, 1.0]`.
    pub heavy_min: f64,
}

impl CloudClimate {
    /// The climate used throughout the evaluation, calibrated to the
    /// statistics above: 24 % clear visits, ~2/3 mean coverage.
    pub fn temperate() -> Self {
        CloudClimate {
            clear_prob: 0.24,
            clear_max: 0.008,
            partial_prob: 0.12,
            heavy_min: 0.62,
        }
    }

    /// A nearly always-clear climate, useful for experiments that need
    /// cloud-free sequences (e.g. the Figure 4 age sweep, which uses
    /// "cloud-free images").
    pub fn always_clear() -> Self {
        CloudClimate {
            clear_prob: 1.0,
            clear_max: 0.004,
            partial_prob: 0.0,
            heavy_min: 0.62,
        }
    }

    /// Deterministic coverage fraction for a given seed and day.
    pub fn coverage(&self, seed: u64, day: f64) -> f64 {
        let day_idx = day.floor() as i64;
        let u = hash_unit(hash3(seed ^ 0xC10D, day_idx, 0, 0)) as f64;
        let v = hash_unit(hash3(seed ^ 0xC10E, day_idx, 0, 0)) as f64;
        if u < self.clear_prob {
            v * self.clear_max
        } else if u < self.clear_prob + self.partial_prob {
            self.clear_max + v * (0.5 - self.clear_max)
        } else {
            self.heavy_min + v * (1.0 - self.heavy_min)
        }
    }

    /// Expected coverage of the mixture.
    pub fn mean_coverage(&self) -> f64 {
        let heavy_prob = 1.0 - self.clear_prob - self.partial_prob;
        self.clear_prob * self.clear_max / 2.0
            + self.partial_prob * (self.clear_max + 0.5) / 2.0
            + heavy_prob * (self.heavy_min + 1.0) / 2.0
    }
}

impl Default for CloudClimate {
    fn default() -> Self {
        Self::temperate()
    }
}

/// A synthesized cloud opacity field.
#[derive(Debug, Clone)]
pub struct CloudField {
    alpha: Raster,
    fraction: f64,
}

/// Internal resolution divisor for cloud synthesis; clouds are smooth, so
/// the field is generated coarse and upsampled.
const CLOUD_COARSE_FACTOR: usize = 4;

impl CloudField {
    /// Synthesizes an opacity field with (approximately) the requested
    /// coverage fraction.
    ///
    /// Coverage is measured as the fraction of pixels with opacity > 0.5.
    /// The synthesis thresholds a fractal noise field at the empirical
    /// quantile of the requested coverage, so the match is tight for any
    /// coverage in `[0, 1]`.
    pub fn generate(seed: u64, day: f64, width: usize, height: usize, coverage: f64) -> Self {
        let coverage = coverage.clamp(0.0, 1.0);
        if coverage <= 0.0 {
            return CloudField {
                alpha: Raster::new(width, height),
                fraction: 0.0,
            };
        }
        let day_idx = day.floor() as i64;
        let cw = (width / CLOUD_COARSE_FACTOR).max(2);
        let ch = (height / CLOUD_COARSE_FACTOR).max(2);
        let scale = 1.0 / cw.max(ch) as f32;
        let coarse = Raster::from_fn(cw, ch, |x, y| {
            fbm2(
                seed ^ 0xC10F,
                x as f32 * scale,
                y as f32 * scale,
                day_idx,
                4,
                2.5,
            )
        });
        // Empirical quantile threshold: exactly `coverage` of coarse pixels
        // lie above it.
        let mut sorted: Vec<f32> = coarse.as_slice().to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("noise is finite"));
        let k = ((1.0 - coverage) * (sorted.len() - 1) as f64).round() as usize;
        let threshold = sorted[k.min(sorted.len() - 1)];
        // Soft edge around the threshold gives clouds feathered borders.
        let edge = 0.06f32;
        let soft = coarse.map(|v| ((v - threshold) / edge + 0.5).clamp(0.0, 1.0));
        let alpha = upsample_bilinear(&soft, width, height).expect("upsample cloud field");
        let covered = alpha.as_slice().iter().filter(|&&a| a > 0.5).count();
        let fraction = covered as f64 / alpha.len() as f64;
        CloudField { alpha, fraction }
    }

    /// Per-pixel opacity in `[0, 1]`.
    pub fn alpha(&self) -> &Raster {
        &self.alpha
    }

    /// The opacity field, without a copy.
    pub(crate) fn into_alpha(self) -> Raster {
        self.alpha
    }

    /// Measured fraction of pixels with opacity > 0.5.
    pub fn fraction(&self) -> f64 {
        self.fraction
    }

    /// Boolean per-pixel mask at the 0.5 opacity level.
    pub fn mask(&self) -> Vec<bool> {
        self.alpha.as_slice().iter().map(|&a| a > 0.5).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn climate_mixture_statistics() {
        let climate = CloudClimate::temperate();
        let n = 20_000;
        let mut clear = 0usize;
        let mut heavy = 0usize;
        let mut total = 0.0f64;
        for day in 0..n {
            let c = climate.coverage(77, day as f64);
            assert!((0.0..=1.0).contains(&c));
            if c < 0.01 {
                clear += 1;
            }
            if c > 0.5 {
                heavy += 1;
            }
            total += c;
        }
        let p_clear = clear as f64 / n as f64;
        let p_heavy = heavy as f64 / n as f64;
        let mean = total / n as f64;
        // Figure 5 calibration: ~24 % of visits are reference-grade.
        assert!((p_clear - 0.24).abs() < 0.02, "p_clear {p_clear}");
        // §5: images with >50 % cloud are dropped; most visits are.
        assert!((0.55..=0.72).contains(&p_heavy), "p_heavy {p_heavy}");
        // §3: about 2/3 of the earth is cloud covered on average.
        assert!((0.5..=0.75).contains(&mean), "mean {mean}");
    }

    #[test]
    fn coverage_deterministic_per_day() {
        let climate = CloudClimate::temperate();
        assert_eq!(climate.coverage(1, 5.0), climate.coverage(1, 5.2));
        assert_ne!(climate.coverage(1, 5.0), climate.coverage(1, 6.0));
        assert_ne!(climate.coverage(1, 5.0), climate.coverage(2, 5.0));
    }

    #[test]
    fn always_clear_is_reference_grade() {
        let climate = CloudClimate::always_clear();
        for day in 0..200 {
            assert!(climate.coverage(3, day as f64) < 0.01);
        }
    }

    #[test]
    fn mean_coverage_formula_matches_samples() {
        let climate = CloudClimate::temperate();
        let n = 50_000;
        let sampled: f64 = (0..n).map(|d| climate.coverage(9, d as f64)).sum::<f64>() / n as f64;
        assert!((sampled - climate.mean_coverage()).abs() < 0.01);
    }

    #[test]
    fn field_matches_requested_coverage() {
        for &target in &[0.05f64, 0.3, 0.7, 0.95] {
            let f = CloudField::generate(11, 4.0, 256, 256, target);
            assert!(
                (f.fraction() - target).abs() < 0.08,
                "target {target} got {}",
                f.fraction()
            );
        }
    }

    #[test]
    fn zero_coverage_yields_empty_field() {
        let f = CloudField::generate(11, 4.0, 64, 64, 0.0);
        assert_eq!(f.fraction(), 0.0);
        assert!(f.alpha().as_slice().iter().all(|&a| a == 0.0));
    }

    #[test]
    fn full_coverage_yields_opaque_field() {
        let f = CloudField::generate(11, 4.0, 64, 64, 1.0);
        assert!(f.fraction() > 0.95, "fraction {}", f.fraction());
    }

    #[test]
    fn fields_decorrelate_across_days() {
        let a = CloudField::generate(11, 1.0, 128, 128, 0.5);
        let b = CloudField::generate(11, 2.0, 128, 128, 0.5);
        assert_ne!(a.alpha().as_slice(), b.alpha().as_slice());
    }

    #[test]
    fn alpha_in_unit_range() {
        let f = CloudField::generate(13, 9.0, 128, 128, 0.4);
        assert!(f
            .alpha()
            .as_slice()
            .iter()
            .all(|&a| (0.0..=1.0).contains(&a)));
    }

    #[test]
    fn mask_consistent_with_fraction() {
        let f = CloudField::generate(5, 2.0, 128, 128, 0.6);
        let mask_frac = f.mask().iter().filter(|&&m| m).count() as f64 / (128.0 * 128.0);
        assert!((mask_frac - f.fraction()).abs() < 1e-9);
    }
}
