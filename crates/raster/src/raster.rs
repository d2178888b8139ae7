//! The core single-band image type.

use crate::RasterError;
use std::fmt;

/// A single-band two-dimensional image of `f32` samples.
///
/// Samples are stored row-major. By convention throughout the workspace,
/// values are reflectances normalized to `[0, 1]`, matching the paper's
/// normalization before change detection (§3, footnote 5). The type itself
/// does not enforce the range — sensor noise may push samples slightly
/// outside — but [`Raster::clamped`] restores it when needed.
///
/// # Example
///
/// ```
/// use earthplus_raster::Raster;
///
/// let mut r = Raster::filled(4, 3, 0.5);
/// r.set(2, 1, 0.75);
/// assert_eq!(r.get(2, 1), 0.75);
/// assert_eq!(r.len(), 12);
/// ```
#[derive(Clone, PartialEq)]
pub struct Raster {
    width: usize,
    height: usize,
    data: Vec<f32>,
}

impl Raster {
    /// Creates a raster of the given dimensions filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `width * height` overflows `usize`.
    pub fn new(width: usize, height: usize) -> Self {
        Self::filled(width, height, 0.0)
    }

    /// Creates a raster filled with a constant value.
    pub fn filled(width: usize, height: usize, value: f32) -> Self {
        let len = width
            .checked_mul(height)
            .expect("raster dimensions overflow");
        Raster {
            width,
            height,
            data: vec![value; len],
        }
    }

    /// Creates a raster by evaluating `f(x, y)` at every pixel.
    ///
    /// # Example
    ///
    /// ```
    /// use earthplus_raster::Raster;
    /// let ramp = Raster::from_fn(8, 1, |x, _| x as f32 / 7.0);
    /// assert_eq!(ramp.get(7, 0), 1.0);
    /// ```
    pub fn from_fn<F>(width: usize, height: usize, mut f: F) -> Self
    where
        F: FnMut(usize, usize) -> f32,
    {
        let mut data = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                data.push(f(x, y));
            }
        }
        Raster {
            width,
            height,
            data,
        }
    }

    /// Reshapes the raster in place to `width × height`, reusing the
    /// existing allocation (growing it only when the new geometry is
    /// larger than anything seen before); every sample is reset to zero.
    ///
    /// This is the allocation-reuse seam for decode-into-style APIs that
    /// repeatedly fill one output raster with varying geometry.
    ///
    /// # Panics
    ///
    /// Panics if `width * height` overflows `usize`.
    pub fn reset(&mut self, width: usize, height: usize) {
        let len = width
            .checked_mul(height)
            .expect("raster dimensions overflow");
        self.data.clear();
        self.data.resize(len, 0.0);
        self.width = width;
        self.height = height;
    }

    /// Creates a raster from a row-major sample vector.
    ///
    /// # Errors
    ///
    /// Returns [`RasterError::InvalidDimensions`] if `data.len() != width *
    /// height`, or if `width * height` overflows.
    pub fn from_vec(width: usize, height: usize, data: Vec<f32>) -> Result<Self, RasterError> {
        if width.checked_mul(height) != Some(data.len()) {
            return Err(RasterError::InvalidDimensions {
                reason: format!("data length {} does not equal {width}x{height}", data.len()),
            });
        }
        Ok(Raster {
            width,
            height,
            data,
        })
    }

    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// `(width, height)` pair.
    pub fn dimensions(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Total number of samples.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the raster holds no samples.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns the sample at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> f32 {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x]
    }

    /// Returns the sample at `(x, y)`, or `None` when out of bounds.
    #[inline]
    pub fn try_get(&self, x: usize, y: usize) -> Option<f32> {
        if x < self.width && y < self.height {
            Some(self.data[y * self.width + x])
        } else {
            None
        }
    }

    /// Sets the sample at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, value: f32) {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x] = value;
    }

    /// Immutable view of the underlying row-major samples.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major samples.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the raster and returns the underlying sample vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// One row of samples.
    ///
    /// # Panics
    ///
    /// Panics if `y >= height`.
    pub fn row(&self, y: usize) -> &[f32] {
        assert!(y < self.height, "row {y} out of bounds");
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// A borrowed zero-copy view of a rectangle that lies fully inside the
    /// raster (see [`TileView`](crate::TileView)).
    ///
    /// # Panics
    ///
    /// Panics if the rectangle exceeds the raster bounds (use
    /// [`TileGrid::extract_tile`](crate::TileGrid::extract_tile) for a
    /// tile clipped at the image edges).
    pub fn view(&self, x0: usize, y0: usize, width: usize, height: usize) -> crate::TileView<'_> {
        crate::TileView::new(self, x0, y0, width, height)
    }

    /// Applies `f` to every sample, producing a new raster.
    pub fn map<F>(&self, mut f: F) -> Raster
    where
        F: FnMut(f32) -> f32,
    {
        Raster {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Applies `f` to every sample in place.
    pub fn map_in_place<F>(&mut self, mut f: F)
    where
        F: FnMut(f32) -> f32,
    {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Combines two equally-sized rasters sample-by-sample.
    ///
    /// # Errors
    ///
    /// Returns [`RasterError::DimensionMismatch`] when shapes differ.
    #[cfg(test)]
    fn zip_map<F>(&self, other: &Raster, mut f: F) -> Result<Raster, RasterError>
    where
        F: FnMut(f32, f32) -> f32,
    {
        if self.dimensions() != other.dimensions() {
            return Err(RasterError::DimensionMismatch {
                left: self.dimensions(),
                right: other.dimensions(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Raster {
            width: self.width,
            height: self.height,
            data,
        })
    }

    /// Returns a copy with every sample clamped to `[0, 1]`.
    pub fn clamped(&self) -> Raster {
        self.map(|v| v.clamp(0.0, 1.0))
    }

    /// Mean of all samples (0.0 for an empty raster).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.data.iter().map(|&v| v as f64).sum();
        (sum / self.data.len() as f64) as f32
    }

    /// Population variance of all samples (0.0 for an empty raster).
    pub fn variance(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        let mean = self.mean() as f64;
        let sum: f64 = self
            .data
            .iter()
            .map(|&v| {
                let d = v as f64 - mean;
                d * d
            })
            .sum();
        (sum / self.data.len() as f64) as f32
    }

    /// Extracts the rectangle with top-left corner `(x0, y0)` and the given
    /// size. Pixels falling outside the raster are filled with `fill`.
    pub(crate) fn crop(
        &self,
        x0: usize,
        y0: usize,
        width: usize,
        height: usize,
        fill: f32,
    ) -> Raster {
        Raster::from_fn(width, height, |x, y| {
            self.try_get(x0 + x, y0 + y).unwrap_or(fill)
        })
    }

    /// Writes `patch` into this raster with its top-left corner at
    /// `(x0, y0)`. Parts of the patch falling outside are ignored.
    pub(crate) fn blit(&mut self, x0: usize, y0: usize, patch: &Raster) {
        for py in 0..patch.height {
            let y = y0 + py;
            if y >= self.height {
                break;
            }
            for px in 0..patch.width {
                let x = x0 + px;
                if x >= self.width {
                    break;
                }
                self.set(x, y, patch.get(px, py));
            }
        }
    }
}

impl fmt::Debug for Raster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Raster")
            .field("width", &self.width)
            .field("height", &self.height)
            .field("mean", &self.mean())
            .finish()
    }
}

impl Default for Raster {
    fn default() -> Self {
        Raster::new(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_row_major_layout() {
        let r = Raster::from_fn(3, 2, |x, y| (y * 3 + x) as f32);
        assert_eq!(r.as_slice(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(r.get(2, 1), 5.0);
    }

    #[test]
    fn reset_reuses_allocation_and_zeroes() {
        let mut r = Raster::filled(8, 8, 0.7);
        let cap = r.data.capacity();
        r.reset(4, 3);
        assert_eq!(r.dimensions(), (4, 3));
        assert!(r.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(r.data.capacity(), cap, "shrinking must keep the buffer");
        r.reset(8, 8);
        assert_eq!(r.data.capacity(), cap, "regrowing within capacity");
        r.reset(0, 5);
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Raster::from_vec(2, 2, vec![0.0; 4]).is_ok());
        let err = Raster::from_vec(2, 2, vec![0.0; 5]).unwrap_err();
        assert!(matches!(err, RasterError::InvalidDimensions { .. }));
    }

    #[test]
    fn from_vec_refuses_overflowing_dimensions() {
        assert!(Raster::from_vec(usize::MAX, 2, Vec::new()).is_err());
    }

    #[test]
    fn try_get_bounds() {
        let r = Raster::filled(2, 2, 1.0);
        assert_eq!(r.try_get(1, 1), Some(1.0));
        assert_eq!(r.try_get(2, 1), None);
        assert_eq!(r.try_get(1, 2), None);
    }

    #[test]
    fn zip_map_rejects_mismatched_shapes() {
        let a = Raster::new(2, 2);
        let b = Raster::new(3, 2);
        assert!(matches!(
            a.zip_map(&b, |x, y| x + y),
            Err(RasterError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn zip_map_adds() {
        let a = Raster::filled(2, 2, 0.25);
        let b = Raster::filled(2, 2, 0.5);
        let c = a.zip_map(&b, |x, y| x + y).unwrap();
        assert!(c.as_slice().iter().all(|&v| (v - 0.75).abs() < 1e-6));
    }

    #[test]
    fn mean_and_variance() {
        let r = Raster::from_vec(4, 1, vec![0.0, 0.0, 1.0, 1.0]).unwrap();
        assert!((r.mean() - 0.5).abs() < 1e-6);
        assert!((r.variance() - 0.25).abs() < 1e-6);
    }

    #[test]
    fn clamped_restores_unit_range() {
        let r = Raster::from_vec(3, 1, vec![-0.5, 0.5, 1.5]).unwrap();
        assert_eq!(r.clamped().as_slice(), &[0.0, 0.5, 1.0]);
    }

    #[test]
    fn crop_pads_with_fill() {
        let r = Raster::from_fn(2, 2, |x, y| (y * 2 + x) as f32);
        let c = r.crop(1, 1, 2, 2, -1.0);
        assert_eq!(c.as_slice(), &[3.0, -1.0, -1.0, -1.0]);
    }

    #[test]
    fn blit_roundtrips_with_crop() {
        let mut canvas = Raster::new(4, 4);
        let patch = Raster::filled(2, 2, 0.9);
        canvas.blit(1, 2, &patch);
        let back = canvas.crop(1, 2, 2, 2, 0.0);
        assert_eq!(back, patch);
    }

    #[test]
    fn blit_clips_at_edges() {
        let mut canvas = Raster::new(3, 3);
        let patch = Raster::filled(3, 3, 1.0);
        canvas.blit(2, 2, &patch);
        assert_eq!(canvas.get(2, 2), 1.0);
        assert_eq!(canvas.get(0, 0), 0.0);
    }

    #[test]
    fn empty_raster_statistics_are_zero() {
        let r = Raster::new(0, 0);
        assert!(r.is_empty());
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.variance(), 0.0);
    }

    #[test]
    fn row_access() {
        let r = Raster::from_fn(3, 2, |x, y| (y * 3 + x) as f32);
        assert_eq!(r.row(1), &[3.0, 4.0, 5.0]);
    }
}
