//! Illumination alignment.
//!
//! Two captures of the same location taken days apart differ in illumination
//! (sun elevation, atmospheric haze). The paper aligns "the illumination
//! between the reference image and the captured image on less-cloudy areas
//! using standard linear regression (since the illumination condition
//! affects the pixel value linearly)" (§5).
//!
//! [`IlluminationAligner`] fits `capture ≈ gain · reference + offset` by
//! ordinary least squares over a pixel mask (typically the non-cloudy
//! pixels) and applies the fitted [`AlignmentModel`] to the reference before
//! change detection.

use crate::{Raster, RasterError};

/// A fitted linear illumination model `y = gain · x + offset`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlignmentModel {
    /// Multiplicative term.
    pub gain: f32,
    /// Additive term.
    pub offset: f32,
}

impl AlignmentModel {
    /// The identity model (gain 1, offset 0).
    pub fn identity() -> Self {
        AlignmentModel {
            gain: 1.0,
            offset: 0.0,
        }
    }

    /// Applies the model to a single sample.
    #[inline]
    pub fn apply(&self, x: f32) -> f32 {
        self.gain * x + self.offset
    }

    /// Applies the model to every sample of a raster.
    pub fn apply_to(&self, image: &Raster) -> Raster {
        image.map(|v| self.apply(v))
    }
}

impl Default for AlignmentModel {
    fn default() -> Self {
        Self::identity()
    }
}

/// Least-squares illumination aligner.
///
/// # Example
///
/// ```
/// use earthplus_raster::{IlluminationAligner, Raster};
///
/// # fn main() -> Result<(), earthplus_raster::RasterError> {
/// let reference = Raster::from_fn(16, 16, |x, y| ((x + y) % 9) as f32 / 10.0);
/// // The new capture is the same scene under 20% brighter illumination.
/// let capture = reference.map(|v| 1.2 * v + 0.05);
/// let model = IlluminationAligner::new().fit(&reference, &capture, None)?;
/// assert!((model.gain - 1.2).abs() < 1e-3);
/// assert!((model.offset - 0.05).abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct IlluminationAligner {
    min_samples: usize,
    max_gain: f32,
}

impl IlluminationAligner {
    /// Creates an aligner with default limits: at least 16 valid samples and
    /// gain clamped to `[1/4, 4]` to reject degenerate fits.
    pub fn new() -> Self {
        IlluminationAligner {
            min_samples: 16,
            max_gain: 4.0,
        }
    }

    /// Fits `capture ≈ gain · reference + offset` over pixels where `mask`
    /// is `true` (or all pixels when `mask` is `None`).
    ///
    /// Falls back to the identity model when there are too few samples or
    /// the reference has (near-)zero variance over the mask, and clamps the
    /// gain to a sane range so that a pathological fit can never amplify
    /// noise unboundedly.
    ///
    /// # Errors
    ///
    /// Returns [`RasterError::DimensionMismatch`] if shapes differ (between
    /// the images, or between the images and the mask).
    pub fn fit(
        &self,
        reference: &Raster,
        capture: &Raster,
        mask: Option<&[bool]>,
    ) -> Result<AlignmentModel, RasterError> {
        if reference.dimensions() != capture.dimensions() {
            return Err(RasterError::DimensionMismatch {
                left: reference.dimensions(),
                right: capture.dimensions(),
            });
        }
        if let Some(m) = mask {
            if m.len() != reference.len() {
                return Err(RasterError::DimensionMismatch {
                    left: (m.len(), 1),
                    right: (reference.len(), 1),
                });
            }
        }

        let mut n = 0usize;
        let mut sum_x = 0.0f64;
        let mut sum_y = 0.0f64;
        let mut sum_xx = 0.0f64;
        let mut sum_xy = 0.0f64;
        for (i, (&x, &y)) in reference
            .as_slice()
            .iter()
            .zip(capture.as_slice())
            .enumerate()
        {
            if let Some(m) = mask {
                if !m[i] {
                    continue;
                }
            }
            let (x, y) = (x as f64, y as f64);
            n += 1;
            sum_x += x;
            sum_y += y;
            sum_xx += x * x;
            sum_xy += x * y;
        }

        if n < self.min_samples {
            return Ok(AlignmentModel::identity());
        }
        let nf = n as f64;
        let var_x = sum_xx / nf - (sum_x / nf) * (sum_x / nf);
        if var_x < 1e-9 {
            // Flat reference: only an offset is identifiable.
            let offset = (sum_y - sum_x) / nf;
            return Ok(AlignmentModel {
                gain: 1.0,
                offset: offset as f32,
            });
        }
        let cov_xy = sum_xy / nf - (sum_x / nf) * (sum_y / nf);
        let mut gain = (cov_xy / var_x) as f32;
        gain = gain.clamp(1.0 / self.max_gain, self.max_gain);
        let offset = (sum_y / nf - gain as f64 * sum_x / nf) as f32;
        Ok(AlignmentModel { gain, offset })
    }

    /// Convenience: fits the model and returns the aligned reference.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`IlluminationAligner::fit`].
    pub fn align(
        &self,
        reference: &Raster,
        capture: &Raster,
        mask: Option<&[bool]>,
    ) -> Result<Raster, RasterError> {
        let model = self.fit(reference, capture, mask)?;
        Ok(model.apply_to(reference))
    }

    /// Robust fit for data contaminated by genuine changes: iteratively
    /// refits while excluding pixels whose residual exceeds
    /// `max(3 × median |residual|, outlier_floor)`, then keeps the model
    /// only if it beats the identity on median residual (otherwise the
    /// identity is returned — downloading a few extra tiles is always safe,
    /// a corrupt radiometric model is not).
    ///
    /// # Errors
    ///
    /// Propagates errors from [`IlluminationAligner::fit`].
    pub fn fit_robust(
        &self,
        reference: &Raster,
        capture: &Raster,
        mask: Option<&[bool]>,
        outlier_floor: f32,
    ) -> Result<AlignmentModel, RasterError> {
        let mut model = self.fit(reference, capture, mask)?;
        let n = reference.len();
        let mut keep: Vec<bool> = match mask {
            Some(m) => m.to_vec(),
            None => vec![true; n],
        };
        for _ in 0..4 {
            let mut residuals: Vec<f32> = Vec::with_capacity(n);
            for i in 0..n {
                let r = (capture.as_slice()[i] - model.apply(reference.as_slice()[i])).abs();
                residuals.push(r);
            }
            let mut masked: Vec<f32> = residuals
                .iter()
                .zip(&keep)
                .filter(|(_, &k)| k)
                .map(|(&r, _)| r)
                .collect();
            if masked.is_empty() {
                break;
            }
            let mid = masked.len() / 2;
            masked.select_nth_unstable_by(mid, |a, b| {
                a.partial_cmp(b).expect("residuals are finite")
            });
            let median = masked[mid];
            let cut = (2.5 * median).max(outlier_floor);
            let base_mask = mask.unwrap_or(&[]);
            for i in 0..n {
                keep[i] = residuals[i] <= cut && mask.map(|_| base_mask[i]).unwrap_or(true);
            }
            model = self.fit(reference, capture, Some(&keep))?;
        }
        // Accept the model only if it actually helps.
        let median_under = |m: &AlignmentModel| -> f32 {
            let mut rs: Vec<f32> = (0..n)
                .filter(|&i| mask.map(|ma| ma[i]).unwrap_or(true))
                .map(|i| (capture.as_slice()[i] - m.apply(reference.as_slice()[i])).abs())
                .collect();
            if rs.is_empty() {
                return 0.0;
            }
            let mid = rs.len() / 2;
            rs.select_nth_unstable_by(mid, |a, b| a.partial_cmp(b).expect("residuals are finite"));
            rs[mid]
        };
        let identity = AlignmentModel::identity();
        if median_under(&model) <= median_under(&identity) {
            Ok(model)
        } else {
            Ok(identity)
        }
    }
}

impl Default for IlluminationAligner {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::mean_abs_diff;

    fn textured(w: usize, h: usize) -> Raster {
        Raster::from_fn(w, h, |x, y| ((x * 7 + y * 13) % 53) as f32 / 53.0)
    }

    #[test]
    fn recovers_exact_linear_model() {
        let reference = textured(32, 32);
        let capture = reference.map(|v| 0.8 * v + 0.1);
        let model = IlluminationAligner::new()
            .fit(&reference, &capture, None)
            .unwrap();
        assert!((model.gain - 0.8).abs() < 1e-4);
        assert!((model.offset - 0.1).abs() < 1e-4);
        let aligned = model.apply_to(&reference);
        assert!(mean_abs_diff(&aligned, &capture).unwrap() < 1e-5);
    }

    #[test]
    fn masked_fit_ignores_cloudy_pixels() {
        let reference = textured(16, 16);
        let mut capture = reference.map(|v| 1.1 * v);
        // Corrupt half the pixels as if covered by bright cloud.
        let mut mask = vec![true; capture.len()];
        for i in 0..capture.len() / 2 {
            capture.as_mut_slice()[i] = 1.0;
            mask[i] = false;
        }
        let model = IlluminationAligner::new()
            .fit(&reference, &capture, Some(&mask))
            .unwrap();
        assert!((model.gain - 1.1).abs() < 1e-3);
        assert!(model.offset.abs() < 1e-3);
    }

    #[test]
    fn too_few_samples_yields_identity() {
        let reference = textured(4, 4);
        let capture = reference.map(|v| 2.0 * v);
        let mask = vec![false; 16];
        let model = IlluminationAligner::new()
            .fit(&reference, &capture, Some(&mask))
            .unwrap();
        assert_eq!(model, AlignmentModel::identity());
    }

    #[test]
    fn flat_reference_fits_offset_only() {
        let reference = Raster::filled(8, 8, 0.5);
        let capture = Raster::filled(8, 8, 0.7);
        let model = IlluminationAligner::new()
            .fit(&reference, &capture, None)
            .unwrap();
        assert_eq!(model.gain, 1.0);
        assert!((model.offset - 0.2).abs() < 1e-6);
    }

    #[test]
    fn gain_is_clamped() {
        // Construct data implying a huge gain; the aligner must clamp it.
        let reference = Raster::from_fn(16, 16, |x, _| x as f32 * 1e-4);
        let capture = Raster::from_fn(16, 16, |x, _| x as f32 * 1.0);
        let model = IlluminationAligner::new()
            .fit(&reference, &capture, None)
            .unwrap();
        assert!(model.gain <= 4.0);
    }

    #[test]
    fn mismatched_mask_length_errors() {
        let a = textured(4, 4);
        let mask = vec![true; 3];
        assert!(IlluminationAligner::new().fit(&a, &a, Some(&mask)).is_err());
    }

    #[test]
    fn robust_fit_survives_heavy_contamination() {
        // 20% of the pixels carry genuine (large) changes; the robust fit
        // must still recover the illumination model.
        let reference = textured(32, 32);
        let mut capture = reference.map(|v| 1.12 * v - 0.03);
        for i in 0..capture.len() / 5 {
            let idx = (i * 7919) % capture.len();
            capture.as_mut_slice()[idx] = 1.0 - capture.as_mut_slice()[idx];
        }
        let model = IlluminationAligner::new()
            .fit_robust(&reference, &capture, None, 0.02)
            .unwrap();
        assert!((model.gain - 1.12).abs() < 0.05, "gain {}", model.gain);
        assert!(
            (model.offset + 0.03).abs() < 0.02,
            "offset {}",
            model.offset
        );
    }

    #[test]
    fn robust_fit_falls_back_to_identity_when_fit_is_useless() {
        // Capture unrelated to the reference: the identity must win over a
        // spurious regression.
        let reference = textured(16, 16);
        let capture = Raster::from_fn(16, 16, |x, y| ((x * 31 + y * 3) % 7) as f32 / 7.0);
        let model = IlluminationAligner::new()
            .fit_robust(&reference, &capture, None, 0.02)
            .unwrap();
        // Either identity or something that beats identity on median
        // residual — both acceptable; identity gain is 1.
        let med = |m: &AlignmentModel| {
            let mut rs: Vec<f32> = reference
                .as_slice()
                .iter()
                .zip(capture.as_slice())
                .map(|(&r, &c)| (c - m.apply(r)).abs())
                .collect();
            rs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            rs[rs.len() / 2]
        };
        assert!(med(&model) <= med(&AlignmentModel::identity()) + 1e-6);
    }

    #[test]
    fn robust_fit_respects_mask() {
        let reference = textured(16, 16);
        let capture = reference.map(|v| 0.9 * v + 0.05);
        let mask = vec![true; 256];
        let model = IlluminationAligner::new()
            .fit_robust(&reference, &capture, Some(&mask), 0.02)
            .unwrap();
        assert!((model.gain - 0.9).abs() < 0.02);
    }

    #[test]
    fn alignment_reduces_residual_under_noise() {
        let reference = textured(64, 64);
        // Illumination change plus small sensor noise.
        let capture = Raster::from_fn(64, 64, |x, y| {
            let v = reference.get(x, y);
            let noise = (((x * 31 + y * 59) % 11) as f32 / 11.0 - 0.5) * 0.01;
            1.15 * v - 0.03 + noise
        });
        let before = mean_abs_diff(&reference, &capture).unwrap();
        let aligned = IlluminationAligner::new()
            .align(&reference, &capture, None)
            .unwrap();
        let after = mean_abs_diff(&aligned, &capture).unwrap();
        assert!(after < before / 3.0, "before={before} after={after}");
        // Residual after alignment is at sensor-noise scale, i.e. below the
        // paper's theta=0.01 change threshold.
        assert!(after < 0.01);
    }
}
