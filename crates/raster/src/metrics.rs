//! Image-quality and difference metrics.
//!
//! The paper measures downloaded-image quality with Peak Signal-to-Noise
//! Ratio (PSNR), "which aligns with satellite imagery compression
//! literature" (§2.2), and declares a tile changed when its mean absolute
//! pixel difference exceeds θ = 0.01 on `[0, 1]`-normalized data (§3).

use crate::{Raster, RasterError};

/// PSNR value, in decibels, corresponding to a perfect reconstruction.
///
/// MSE of zero yields infinite PSNR; we cap reports at this value so that
/// aggregate statistics stay finite.
pub(crate) const PSNR_CAP_DB: f64 = 99.0;

/// Mean squared error between two rasters of identical shape.
///
/// # Errors
///
/// Returns [`RasterError::DimensionMismatch`] when shapes differ.
pub fn mse(a: &Raster, b: &Raster) -> Result<f64, RasterError> {
    check(a, b)?;
    if a.is_empty() {
        return Ok(0.0);
    }
    let sum: f64 = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| {
            let d = (x - y) as f64;
            d * d
        })
        .sum();
    Ok(sum / a.len() as f64)
}

/// Mean absolute difference between two rasters of identical shape.
///
/// # Errors
///
/// Returns [`RasterError::DimensionMismatch`] when shapes differ.
pub fn mean_abs_diff(a: &Raster, b: &Raster) -> Result<f64, RasterError> {
    check(a, b)?;
    if a.is_empty() {
        return Ok(0.0);
    }
    let sum: f64 = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| ((x - y) as f64).abs())
        .sum();
    Ok(sum / a.len() as f64)
}

/// Peak Signal-to-Noise Ratio in decibels for `[0, 1]`-normalized imagery
/// (peak value 1.0). Perfect reconstructions report 99 dB.
///
/// # Errors
///
/// Returns [`RasterError::DimensionMismatch`] when shapes differ.
///
/// # Example
///
/// ```
/// use earthplus_raster::{psnr, Raster};
///
/// # fn main() -> Result<(), earthplus_raster::RasterError> {
/// let a = Raster::filled(8, 8, 0.5);
/// let b = a.map(|v| v + 0.1);
/// let q = psnr(&a, &b)?;
/// assert!((q - 20.0).abs() < 0.01); // -10·log10(0.01) = 20 dB
/// # Ok(())
/// # }
/// ```
pub fn psnr(a: &Raster, b: &Raster) -> Result<f64, RasterError> {
    Ok(psnr_from_mse(mse(a, b)?))
}

/// Converts an MSE on `[0, 1]` data to PSNR in decibels, capping at
/// 99 dB.
pub fn psnr_from_mse(mse: f64) -> f64 {
    if mse <= 0.0 {
        return PSNR_CAP_DB;
    }
    (-10.0 * mse.log10()).min(PSNR_CAP_DB)
}

/// Summary statistics over a set of scalar samples (PSNRs, tile fractions,
/// bandwidths...).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PixelStats {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean (0.0 when empty).
    pub mean: f64,
    /// Population standard deviation (0.0 when empty).
    pub std_dev: f64,
    /// Minimum (0.0 when empty).
    pub min: f64,
    /// Maximum (0.0 when empty).
    pub max: f64,
}

impl PixelStats {
    /// Computes statistics over the given samples.
    pub fn from_samples<I>(samples: I) -> Self
    where
        I: IntoIterator<Item = f64>,
    {
        let values: Vec<f64> = samples.into_iter().collect();
        if values.is_empty() {
            return PixelStats::default();
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        PixelStats {
            count: values.len(),
            mean,
            std_dev: var.sqrt(),
            min,
            max,
        }
    }

    /// Standard error of the mean (0.0 when empty).
    ///
    /// The paper's Figure 11 error bars show "the standard deviation of the
    /// mean".
    pub fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev / (self.count as f64).sqrt()
        }
    }
}

/// Empirical CDF support: returns `(sorted values, cumulative fractions)`.
///
/// Used to reproduce the CDF figures (Figures 5 and 12).
#[cfg(test)]
fn empirical_cdf(samples: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in CDF samples"));
    let n = sorted.len();
    let fractions = (1..=n).map(|i| i as f64 / n as f64).collect();
    (sorted, fractions)
}

/// Evaluates the empirical CDF at `x`: the fraction of samples `<= x`.
pub fn cdf_at(samples: &[f64], x: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let hits = samples.iter().filter(|&&v| v <= x).count();
    hits as f64 / samples.len() as f64
}

fn check(a: &Raster, b: &Raster) -> Result<(), RasterError> {
    if a.dimensions() != b.dimensions() {
        return Err(RasterError::DimensionMismatch {
            left: a.dimensions(),
            right: b.dimensions(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_of_identical_is_zero() {
        let a = Raster::from_fn(8, 8, |x, y| (x * y) as f32 / 64.0);
        assert_eq!(mse(&a, &a).unwrap(), 0.0);
        assert_eq!(psnr(&a, &a).unwrap(), PSNR_CAP_DB);
    }

    #[test]
    fn mse_known_value() {
        let a = Raster::filled(4, 4, 0.0);
        let b = Raster::filled(4, 4, 0.5);
        assert!((mse(&a, &b).unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn psnr_known_value() {
        // MSE = 0.01 -> PSNR = 20 dB on unit-peak data.
        assert!((psnr_from_mse(0.01) - 20.0).abs() < 1e-9);
        // MSE = 0.0001 -> 40 dB, the paper's "unchanged" quality bar (§3).
        assert!((psnr_from_mse(1e-4) - 40.0).abs() < 1e-9);
    }

    #[test]
    fn psnr_mismatched_shapes_error() {
        let a = Raster::new(2, 2);
        let b = Raster::new(2, 3);
        assert!(psnr(&a, &b).is_err());
        assert!(mean_abs_diff(&a, &b).is_err());
    }

    #[test]
    fn mean_abs_diff_known_value() {
        let a = Raster::from_vec(2, 1, vec![0.0, 1.0]).unwrap();
        let b = Raster::from_vec(2, 1, vec![0.5, 0.5]).unwrap();
        assert!((mean_abs_diff(&a, &b).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stats_basic() {
        let s = PixelStats::from_samples([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.min - 1.0).abs() < 1e-12);
        assert!((s.max - 4.0).abs() < 1e-12);
        assert!((s.std_dev - (1.25f64).sqrt()).abs() < 1e-12);
        assert!(s.std_error() > 0.0);
    }

    #[test]
    fn stats_empty() {
        let s = PixelStats::from_samples(std::iter::empty());
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.std_error(), 0.0);
    }

    #[test]
    fn cdf_monotone_and_normalized() {
        let (xs, fs) = empirical_cdf(&[3.0, 1.0, 2.0]);
        assert_eq!(xs, vec![1.0, 2.0, 3.0]);
        assert_eq!(fs, vec![1.0 / 3.0, 2.0 / 3.0, 1.0]);
        assert!((cdf_at(&[3.0, 1.0, 2.0], 2.0) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(cdf_at(&[], 1.0), 0.0);
    }
}
