//! Resampling: box-filter downsampling and bilinear upsampling.
//!
//! Earth+ "compresses reference images by downsampling (i.e., lowering
//! resolution)" before uploading them over the narrow uplink, then also
//! downsamples the freshly captured image before computing per-tile
//! differences (§4.3). The paper's flagship operating point shrinks a
//! reference by 51× per axis, i.e. 2601× fewer pixels (Appendix A).

use crate::{Raster, RasterError};

/// Downsamples by an integer factor using an area (box) average.
///
/// Each output pixel is the mean of the corresponding `factor × factor`
/// input block; partial blocks at the right/bottom edges average only the
/// pixels that exist. A factor of 1 returns a copy.
///
/// # Errors
///
/// Returns [`RasterError::InvalidDimensions`] if `factor` is zero or larger
/// than either image dimension.
///
/// # Example
///
/// ```
/// use earthplus_raster::{downsample_box, Raster};
///
/// # fn main() -> Result<(), earthplus_raster::RasterError> {
/// let img = Raster::from_fn(4, 4, |x, _| x as f32);
/// let small = downsample_box(&img, 2)?;
/// assert_eq!(small.dimensions(), (2, 2));
/// assert!((small.get(0, 0) - 0.5).abs() < 1e-6); // mean of columns 0 and 1
/// # Ok(())
/// # }
/// ```
pub fn downsample_box(image: &Raster, factor: usize) -> Result<Raster, RasterError> {
    if factor == 0 {
        return Err(RasterError::InvalidDimensions {
            reason: "downsample factor must be positive".to_owned(),
        });
    }
    if factor > image.width() || factor > image.height() {
        return Err(RasterError::InvalidDimensions {
            reason: format!(
                "downsample factor {factor} exceeds image dimensions {}x{}",
                image.width(),
                image.height()
            ),
        });
    }
    if factor == 1 {
        return Ok(image.clone());
    }
    let out_w = image.width().div_ceil(factor);
    let out_h = image.height().div_ceil(factor);
    let mut out = Raster::new(out_w, out_h);
    for oy in 0..out_h {
        let y0 = oy * factor;
        let y1 = (y0 + factor).min(image.height());
        for ox in 0..out_w {
            let x0 = ox * factor;
            let x1 = (x0 + factor).min(image.width());
            let mut sum = 0.0f64;
            for y in y0..y1 {
                let row = image.row(y);
                for &v in &row[x0..x1] {
                    sum += v as f64;
                }
            }
            let count = ((y1 - y0) * (x1 - x0)) as f64;
            out.set(ox, oy, (sum / count) as f32);
        }
    }
    Ok(out)
}

/// Downsamples to an explicit output size using area averaging over the
/// (possibly fractional) source footprint of each output pixel.
///
/// # Errors
///
/// Returns [`RasterError::InvalidDimensions`] if the target size is zero or
/// exceeds the source size in either dimension.
#[cfg(test)]
fn downsample_to(
    image: &Raster,
    out_width: usize,
    out_height: usize,
) -> Result<Raster, RasterError> {
    if out_width == 0 || out_height == 0 {
        return Err(RasterError::InvalidDimensions {
            reason: "target dimensions must be positive".to_owned(),
        });
    }
    if out_width > image.width() || out_height > image.height() {
        return Err(RasterError::InvalidDimensions {
            reason: format!(
                "target {out_width}x{out_height} exceeds source {}x{}",
                image.width(),
                image.height()
            ),
        });
    }
    if (out_width, out_height) == image.dimensions() {
        return Ok(image.clone());
    }
    let sx = image.width() as f64 / out_width as f64;
    let sy = image.height() as f64 / out_height as f64;
    let mut out = Raster::new(out_width, out_height);
    for oy in 0..out_height {
        let fy0 = oy as f64 * sy;
        let fy1 = (oy + 1) as f64 * sy;
        let y0 = fy0.floor() as usize;
        let y1 = (fy1.ceil() as usize).min(image.height());
        for ox in 0..out_width {
            let fx0 = ox as f64 * sx;
            let fx1 = (ox + 1) as f64 * sx;
            let x0 = fx0.floor() as usize;
            let x1 = (fx1.ceil() as usize).min(image.width());
            let mut weighted = 0.0f64;
            let mut weight = 0.0f64;
            for y in y0..y1 {
                let wy = overlap(y as f64, (y + 1) as f64, fy0, fy1);
                let row = image.row(y);
                for x in x0..x1 {
                    let wx = overlap(x as f64, (x + 1) as f64, fx0, fx1);
                    weighted += row[x] as f64 * wx * wy;
                    weight += wx * wy;
                }
            }
            out.set(ox, oy, (weighted / weight) as f32);
        }
    }
    Ok(out)
}

#[cfg(test)]
fn overlap(a0: f64, a1: f64, b0: f64, b1: f64) -> f64 {
    (a1.min(b1) - a0.max(b0)).max(0.0)
}

/// Upsamples to an explicit output size with bilinear interpolation.
///
/// Sample positions are aligned so that input pixel centres map uniformly
/// onto output pixel centres; edges clamp. Used to bring a downsampled
/// reference back to capture resolution before per-tile comparison.
///
/// # Errors
///
/// Returns [`RasterError::InvalidDimensions`] if the target size is zero or
/// the source is empty.
pub fn upsample_bilinear(
    image: &Raster,
    out_width: usize,
    out_height: usize,
) -> Result<Raster, RasterError> {
    if out_width == 0 || out_height == 0 {
        return Err(RasterError::InvalidDimensions {
            reason: "target dimensions must be positive".to_owned(),
        });
    }
    if image.is_empty() {
        return Err(RasterError::InvalidDimensions {
            reason: "cannot upsample an empty raster".to_owned(),
        });
    }
    if (out_width, out_height) == image.dimensions() {
        return Ok(image.clone());
    }
    let sx = image.width() as f64 / out_width as f64;
    let sy = image.height() as f64 / out_height as f64;
    let max_x = image.width() - 1;
    let max_y = image.height() - 1;
    let mut out = Raster::new(out_width, out_height);
    for oy in 0..out_height {
        // Map output pixel centre back into source pixel-centre coordinates.
        let fy = ((oy as f64 + 0.5) * sy - 0.5).clamp(0.0, max_y as f64);
        let y0 = fy.floor() as usize;
        let y1 = (y0 + 1).min(max_y);
        let ty = (fy - y0 as f64) as f32;
        for ox in 0..out_width {
            let fx = ((ox as f64 + 0.5) * sx - 0.5).clamp(0.0, max_x as f64);
            let x0 = fx.floor() as usize;
            let x1 = (x0 + 1).min(max_x);
            let tx = (fx - x0 as f64) as f32;
            let top = image.get(x0, y0) * (1.0 - tx) + image.get(x1, y0) * tx;
            let bottom = image.get(x0, y1) * (1.0 - tx) + image.get(x1, y1) * tx;
            out.set(ox, oy, top * (1.0 - ty) + bottom * ty);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_downsample_preserves_mean() {
        let img = Raster::from_fn(64, 64, |x, y| ((x * 31 + y * 17) % 97) as f32 / 97.0);
        let small = downsample_box(&img, 4).unwrap();
        assert_eq!(small.dimensions(), (16, 16));
        assert!((small.mean() - img.mean()).abs() < 1e-4);
    }

    #[test]
    fn box_downsample_factor_one_is_identity() {
        let img = Raster::from_fn(8, 8, |x, y| (x + y) as f32);
        assert_eq!(downsample_box(&img, 1).unwrap(), img);
    }

    #[test]
    fn box_downsample_handles_partial_blocks() {
        let img = Raster::from_fn(5, 3, |x, _| x as f32);
        let small = downsample_box(&img, 2).unwrap();
        assert_eq!(small.dimensions(), (3, 2));
        // Last column averages only source column 4.
        assert!((small.get(2, 0) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn box_downsample_rejects_bad_factor() {
        let img = Raster::new(4, 4);
        assert!(downsample_box(&img, 0).is_err());
        assert!(downsample_box(&img, 5).is_err());
    }

    #[test]
    fn downsample_to_preserves_mean_fractional() {
        let img = Raster::from_fn(100, 60, |x, y| ((x * 13 + y * 7) % 50) as f32 / 50.0);
        let small = downsample_to(&img, 33, 20).unwrap();
        assert_eq!(small.dimensions(), (33, 20));
        assert!((small.mean() - img.mean()).abs() < 1e-3);
    }

    #[test]
    fn downsample_to_constant_is_constant() {
        let img = Raster::filled(51, 51, 0.37);
        let small = downsample_to(&img, 7, 7).unwrap();
        for &v in small.as_slice() {
            assert!((v - 0.37).abs() < 1e-6);
        }
    }

    #[test]
    fn downsample_to_rejects_upscale() {
        let img = Raster::new(4, 4);
        assert!(downsample_to(&img, 8, 4).is_err());
        assert!(downsample_to(&img, 0, 4).is_err());
    }

    #[test]
    fn upsample_constant_is_constant() {
        let img = Raster::filled(3, 3, 0.6);
        let big = upsample_bilinear(&img, 10, 10).unwrap();
        for &v in big.as_slice() {
            assert!((v - 0.6).abs() < 1e-6);
        }
    }

    #[test]
    fn upsample_interpolates_gradient() {
        let img = Raster::from_fn(2, 1, |x, _| x as f32);
        let big = upsample_bilinear(&img, 4, 1).unwrap();
        // Output centre positions map to source positions 0, .25, .75, 1.0
        // (clamped); values must be non-decreasing across a ramp.
        let v: Vec<f32> = big.as_slice().to_vec();
        assert!(v.windows(2).all(|w| w[0] <= w[1] + 1e-6));
        assert!((v[0] - 0.0).abs() < 1e-6);
        assert!((v[3] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn down_up_roundtrip_recovers_smooth_image() {
        // A smooth image should survive a 4x shrink/expand with small error.
        let img = Raster::from_fn(64, 64, |x, y| {
            let fx = x as f32 / 63.0;
            let fy = y as f32 / 63.0;
            0.5 + 0.4 * (fx * 3.0).sin() * (fy * 2.0).cos()
        });
        let small = downsample_box(&img, 4).unwrap();
        let back = upsample_bilinear(&small, 64, 64).unwrap();
        let err = crate::metrics::mean_abs_diff(&img, &back).unwrap();
        assert!(err < 0.02, "roundtrip error {err} too large");
    }

    #[test]
    fn paper_scale_reference_downsample() {
        // Appendix A: 51x per-axis downsampling => 2601x fewer pixels.
        let img = Raster::filled(510, 510, 0.5);
        let small = downsample_box(&img, 51).unwrap();
        assert_eq!(small.dimensions(), (10, 10));
        let ratio = img.len() as f64 / small.len() as f64;
        assert!((ratio - 2601.0).abs() < 1e-9);
    }
}
