//! Borrowed, strided sub-rectangle views over a [`Raster`].
//!
//! The on-board hot path (change scoring, cloud features, per-tile
//! encoding) used to materialize every tile with
//! [`TileGrid::extract_tile`](crate::TileGrid::extract_tile) — one fresh
//! `Raster` allocation plus a full copy per tile, thousands of times per
//! capture. A [`TileView`] is the zero-copy replacement: a `(data, stride,
//! rect)` triple borrowing the parent image, exposing the same row-major
//! traversal order as the copied tile so downstream consumers produce
//! bit-identical results.

use crate::Raster;

/// An immutable strided view of a rectangle within a [`Raster`].
///
/// Rows are contiguous `&[f32]` slices of length [`TileView::width`],
/// separated by the parent raster's stride; iteration via
/// [`TileView::rows`] visits samples in exactly the row-major order of the
/// equivalent extracted tile.
#[derive(Debug, Clone, Copy)]
pub struct TileView<'a> {
    data: &'a [f32],
    stride: usize,
    width: usize,
    height: usize,
}

impl<'a> TileView<'a> {
    /// Creates a view of the `width × height` rectangle whose top-left
    /// corner is `(x0, y0)` in `image`.
    ///
    /// # Panics
    ///
    /// Panics if the rectangle does not lie fully inside the raster.
    /// A rectangle with either dimension zero covers no samples and is
    /// normalized to `0 × 0`.
    pub fn new(image: &'a Raster, x0: usize, y0: usize, width: usize, height: usize) -> Self {
        let (img_w, img_h) = image.dimensions();
        assert!(
            x0 + width <= img_w && y0 + height <= img_h,
            "view {width}x{height}@({x0},{y0}) exceeds raster {img_w}x{img_h}"
        );
        let stride = img_w;
        let (data, width, height): (&[f32], _, _) = if width == 0 || height == 0 {
            (&[], 0, 0)
        } else {
            // From the first sample of the rect to its last (inclusive).
            (
                &image.as_slice()[y0 * stride + x0..(y0 + height - 1) * stride + x0 + width],
                width,
                height,
            )
        };
        TileView {
            data,
            stride,
            width,
            height,
        }
    }

    /// View width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// View height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// `(width, height)` pair.
    pub fn dimensions(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Number of samples covered by the view.
    pub fn len(&self) -> usize {
        self.width * self.height
    }

    /// Whether the view covers zero samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sample at view-local coordinates `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> f32 {
        assert!(
            x < self.width && y < self.height,
            "view index out of bounds"
        );
        self.data[y * self.stride + x]
    }

    /// One contiguous row of the view.
    ///
    /// # Panics
    ///
    /// Panics if `y >= height`.
    #[inline]
    pub fn row(&self, y: usize) -> &'a [f32] {
        assert!(y < self.height, "view row {y} out of bounds");
        &self.data[y * self.stride..y * self.stride + self.width]
    }

    /// Iterates over the view's rows top to bottom.
    pub fn rows(&self) -> impl Iterator<Item = &'a [f32]> + '_ {
        (0..self.height).map(move |y| self.row(y))
    }

    /// Materializes the view as an owned raster (identical to what
    /// `extract_tile` used to produce for the same rectangle).
    #[cfg(test)]
    pub(crate) fn to_raster(self) -> Raster {
        let data = self.rows().flatten().copied().collect();
        Raster::from_vec(self.width, self.height, data).expect("view dimensions are consistent")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(w: usize, h: usize) -> Raster {
        Raster::from_fn(w, h, |x, y| (y * w + x) as f32)
    }

    #[test]
    fn view_matches_crop() {
        let img = ramp(7, 5);
        let v = TileView::new(&img, 2, 1, 4, 3);
        let cropped = img.crop(2, 1, 4, 3, f32::NAN);
        assert_eq!(v.to_raster(), cropped);
        assert_eq!(v.get(0, 0), img.get(2, 1));
        assert_eq!(v.get(3, 2), img.get(5, 3));
    }

    #[test]
    fn rows_are_contiguous_slices() {
        let img = ramp(6, 4);
        let v = TileView::new(&img, 1, 2, 3, 2);
        assert_eq!(v.row(0), &[13.0, 14.0, 15.0]);
        assert_eq!(v.row(1), &[19.0, 20.0, 21.0]);
        let flat: Vec<f32> = v.rows().flatten().copied().collect();
        assert_eq!(flat.len(), v.len());
    }

    #[test]
    fn full_image_view() {
        let img = ramp(4, 4);
        let v = TileView::new(&img, 0, 0, 4, 4);
        assert_eq!(v.to_raster(), img);
    }

    #[test]
    #[should_panic(expected = "exceeds raster")]
    fn out_of_bounds_view_panics() {
        let img = ramp(4, 4);
        let _ = TileView::new(&img, 2, 2, 3, 2);
    }

    #[test]
    fn empty_view_is_ok() {
        let img = ramp(4, 4);
        let v = TileView::new(&img, 4, 4, 0, 0);
        assert!(v.is_empty());
        assert_eq!(v.to_raster().dimensions(), (0, 0));
    }

    #[test]
    fn zero_width_or_height_views_normalize_to_empty() {
        let img = ramp(4, 4);
        // Zero width with nonzero height (and vice versa) must not panic
        // in the row accessors.
        let v = TileView::new(&img, 0, 0, 0, 2);
        assert_eq!(v.dimensions(), (0, 0));
        assert_eq!(v.rows().count(), 0);
        assert_eq!(v.to_raster().dimensions(), (0, 0));
        let v = TileView::new(&img, 1, 1, 3, 0);
        assert!(v.is_empty());
    }
}
