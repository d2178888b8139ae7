//! Geographic tiling.
//!
//! Earth+ detects changes and encodes imagery "at the granularity of tiles (a
//! tile is a block of pixels, where we use a 64×64 pixel block as a tile by
//! default)" (§3). [`TileGrid`] maps between pixel space and tile space and
//! [`TileMask`] is a compact per-tile bitset used for change maps, cloud
//! masks, and region-of-interest selections.

use crate::{Raster, RasterError, TileView};
use std::fmt;

/// Identifies one tile within a [`TileGrid`] by column and row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TileIndex {
    /// Tile column (0-based, left to right).
    pub col: usize,
    /// Tile row (0-based, top to bottom).
    pub row: usize,
}

impl TileIndex {
    /// Creates a tile index.
    pub fn new(col: usize, row: usize) -> Self {
        TileIndex { col, row }
    }
}

impl fmt::Display for TileIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.col, self.row)
    }
}

/// Partition of a `width × height` raster into square tiles.
///
/// The final column/row of tiles may be partial when the image size is not a
/// multiple of the tile size; such edge tiles are included and their pixel
/// rectangles are clipped to the image.
///
/// # Example
///
/// ```
/// use earthplus_raster::TileGrid;
///
/// # fn main() -> Result<(), earthplus_raster::RasterError> {
/// let grid = TileGrid::new(130, 64, 64)?;
/// assert_eq!(grid.cols(), 3); // 64 + 64 + 2 remaining pixels
/// assert_eq!(grid.rows(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileGrid {
    width: usize,
    height: usize,
    tile_size: usize,
    cols: usize,
    rows: usize,
}

impl TileGrid {
    /// Creates a grid for an image of the given pixel dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`RasterError::InvalidDimensions`] if `tile_size` is zero or
    /// either image dimension is zero.
    pub fn new(width: usize, height: usize, tile_size: usize) -> Result<Self, RasterError> {
        if tile_size == 0 {
            return Err(RasterError::InvalidDimensions {
                reason: "tile size must be positive".to_owned(),
            });
        }
        if width == 0 || height == 0 {
            return Err(RasterError::InvalidDimensions {
                reason: format!("image dimensions {width}x{height} must be positive"),
            });
        }
        Ok(TileGrid {
            width,
            height,
            tile_size,
            cols: width.div_ceil(tile_size),
            rows: height.div_ceil(tile_size),
        })
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Tile side length in pixels.
    pub fn tile_size(&self) -> usize {
        self.tile_size
    }

    /// Number of tile columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of tile rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Total number of tiles.
    pub fn tile_count(&self) -> usize {
        self.cols * self.rows
    }

    /// Pixel rectangle `(x0, y0, w, h)` covered by a tile, clipped to the
    /// image bounds.
    ///
    /// # Panics
    ///
    /// Panics if the index is outside the grid.
    pub fn tile_rect(&self, index: TileIndex) -> (usize, usize, usize, usize) {
        assert!(
            index.col < self.cols && index.row < self.rows,
            "tile {index} out of bounds for {}x{} grid",
            self.cols,
            self.rows
        );
        let x0 = index.col * self.tile_size;
        let y0 = index.row * self.tile_size;
        let w = self.tile_size.min(self.width - x0);
        let h = self.tile_size.min(self.height - y0);
        (x0, y0, w, h)
    }

    /// The tile containing pixel `(x, y)`, or `None` when outside the image.
    pub fn tile_of_pixel(&self, x: usize, y: usize) -> Option<TileIndex> {
        if x >= self.width || y >= self.height {
            return None;
        }
        Some(TileIndex::new(x / self.tile_size, y / self.tile_size))
    }

    /// Flat index (`row * cols + col`) of a tile.
    pub fn flat_index(&self, index: TileIndex) -> usize {
        index.row * self.cols + index.col
    }

    /// Inverse of [`TileGrid::flat_index`].
    pub fn from_flat_index(&self, flat: usize) -> TileIndex {
        TileIndex::new(flat % self.cols, flat / self.cols)
    }

    /// Iterates over every tile index in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = TileIndex> + '_ {
        let cols = self.cols;
        (0..self.tile_count()).map(move |i| TileIndex::new(i % cols, i / cols))
    }

    /// Extracts the pixels of one tile as a standalone raster (clipped at
    /// image edges, so edge tiles may be smaller than `tile_size`).
    ///
    /// # Errors
    ///
    /// Returns [`RasterError::DimensionMismatch`] if `image` does not match
    /// the grid's pixel dimensions.
    pub fn extract_tile(&self, image: &Raster, index: TileIndex) -> Result<Raster, RasterError> {
        self.check_image(image)?;
        let (x0, y0, w, h) = self.tile_rect(index);
        Ok(image.crop(x0, y0, w, h, 0.0))
    }

    /// A zero-copy strided view of one tile's pixels (clipped at image
    /// edges, so edge tiles may be smaller than `tile_size`). Traversal
    /// order matches [`TileGrid::extract_tile`] exactly; no pixels are
    /// copied.
    ///
    /// # Errors
    ///
    /// Returns [`RasterError::DimensionMismatch`] if `image` does not match
    /// the grid's pixel dimensions.
    pub fn tile_view<'a>(
        &self,
        image: &'a Raster,
        index: TileIndex,
    ) -> Result<TileView<'a>, RasterError> {
        self.check_image(image)?;
        let (x0, y0, w, h) = self.tile_rect(index);
        Ok(TileView::new(image, x0, y0, w, h))
    }

    /// Writes a tile raster back into `image` at the tile's position.
    ///
    /// # Errors
    ///
    /// Returns [`RasterError::DimensionMismatch`] if `image` does not match
    /// the grid.
    pub fn insert_tile(
        &self,
        image: &mut Raster,
        index: TileIndex,
        tile: &Raster,
    ) -> Result<(), RasterError> {
        self.check_image(image)?;
        let (x0, y0, _, _) = self.tile_rect(index);
        image.blit(x0, y0, tile);
        Ok(())
    }

    /// Mean absolute per-pixel difference between `a` and `b` inside each
    /// tile, as a dense `cols × rows` vector in flat-index order.
    ///
    /// This is the quantity the paper thresholds at θ to declare a tile
    /// changed (§3 footnote 5).
    ///
    /// # Errors
    ///
    /// Returns [`RasterError::DimensionMismatch`] if either raster does not
    /// match the grid.
    pub fn tile_mean_abs_diff(&self, a: &Raster, b: &Raster) -> Result<Vec<f32>, RasterError> {
        self.check_image(a)?;
        self.check_image(b)?;
        let mut sums = vec![0.0f64; self.tile_count()];
        let mut counts = vec![0u32; self.tile_count()];
        for y in 0..self.height {
            let trow = y / self.tile_size;
            let arow = a.row(y);
            let brow = b.row(y);
            for x in 0..self.width {
                let idx = trow * self.cols + x / self.tile_size;
                sums[idx] += (arow[x] - brow[x]).abs() as f64;
                counts[idx] += 1;
            }
        }
        Ok(sums
            .iter()
            .zip(&counts)
            .map(|(&s, &c)| if c == 0 { 0.0 } else { (s / c as f64) as f32 })
            .collect())
    }

    /// Fraction of pixels within each tile for which `predicate` holds, in
    /// flat-index order. Used for per-tile cloud coverage.
    ///
    /// # Errors
    ///
    /// Returns [`RasterError::DimensionMismatch`] if `image` does not match
    /// the grid.
    pub fn tile_fraction<F>(&self, image: &Raster, predicate: F) -> Result<Vec<f32>, RasterError>
    where
        F: Fn(f32) -> bool,
    {
        self.check_image(image)?;
        let mut hits = vec![0u32; self.tile_count()];
        let mut counts = vec![0u32; self.tile_count()];
        for y in 0..self.height {
            let trow = y / self.tile_size;
            let row = image.row(y);
            for x in 0..self.width {
                let idx = trow * self.cols + x / self.tile_size;
                if predicate(row[x]) {
                    hits[idx] += 1;
                }
                counts[idx] += 1;
            }
        }
        Ok(hits
            .iter()
            .zip(&counts)
            .map(|(&h, &c)| if c == 0 { 0.0 } else { h as f32 / c as f32 })
            .collect())
    }

    fn check_image(&self, image: &Raster) -> Result<(), RasterError> {
        if image.dimensions() != (self.width, self.height) {
            return Err(RasterError::DimensionMismatch {
                left: image.dimensions(),
                right: (self.width, self.height),
            });
        }
        Ok(())
    }
}

/// A per-tile boolean mask over a [`TileGrid`].
///
/// Used for change maps (which tiles changed), cloud maps (which tiles are
/// cloudy), and region-of-interest selections (which tiles to encode).
#[derive(Clone, PartialEq, Eq)]
pub struct TileMask {
    cols: usize,
    rows: usize,
    bits: Vec<u64>,
}

impl TileMask {
    /// Creates an all-clear mask shaped like `grid`.
    pub fn new(grid: &TileGrid) -> Self {
        Self::with_shape(grid.cols(), grid.rows())
    }

    /// Creates an all-clear mask with explicit tile dimensions.
    pub fn with_shape(cols: usize, rows: usize) -> Self {
        let words = (cols * rows).div_ceil(64);
        TileMask {
            cols,
            rows,
            bits: vec![0; words],
        }
    }

    /// Builds a mask by thresholding per-tile values: tiles whose value is
    /// strictly greater than `threshold` are set.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != grid.tile_count()`.
    pub fn from_scores(grid: &TileGrid, values: &[f32], threshold: f32) -> Self {
        assert_eq!(values.len(), grid.tile_count(), "score length mismatch");
        let mut mask = Self::new(grid);
        for (i, &v) in values.iter().enumerate() {
            if v > threshold {
                mask.set_flat(i, true);
            }
        }
        mask
    }

    /// Number of tile columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of tile rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Total number of tiles covered by the mask.
    pub fn len(&self) -> usize {
        self.cols * self.rows
    }

    /// Whether the mask covers zero tiles.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tests the bit for a tile.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn get(&self, index: TileIndex) -> bool {
        self.get_flat(self.flat(index))
    }

    /// Sets the bit for a tile.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn set(&mut self, index: TileIndex, value: bool) {
        let flat = self.flat(index);
        self.set_flat(flat, value);
    }

    /// Tests a bit by flat index.
    pub fn get_flat(&self, flat: usize) -> bool {
        assert!(flat < self.len(), "tile index out of bounds");
        self.bits[flat / 64] >> (flat % 64) & 1 == 1
    }

    /// Sets a bit by flat index.
    pub fn set_flat(&mut self, flat: usize, value: bool) {
        assert!(flat < self.len(), "tile index out of bounds");
        if value {
            self.bits[flat / 64] |= 1 << (flat % 64);
        } else {
            self.bits[flat / 64] &= !(1 << (flat % 64));
        }
    }

    /// Number of set tiles.
    pub fn count_set(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of set tiles, in `[0, 1]` (0.0 for an empty mask).
    pub fn fraction_set(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.count_set() as f64 / self.len() as f64
        }
    }

    /// Iterates over the indices of set tiles in flat order.
    pub fn iter_set(&self) -> impl Iterator<Item = TileIndex> + '_ {
        let cols = self.cols;
        (0..self.len())
            .filter(move |&i| self.get_flat(i))
            .map(move |i| TileIndex::new(i % cols, i / cols))
    }

    /// Element-wise OR with another mask of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn union_with(&mut self, other: &TileMask) {
        assert_eq!(
            (self.cols, self.rows),
            (other.cols, other.rows),
            "mask shape mismatch"
        );
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }

    /// Element-wise AND with another mask of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn intersect_with(&mut self, other: &TileMask) {
        assert_eq!(
            (self.cols, self.rows),
            (other.cols, other.rows),
            "mask shape mismatch"
        );
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a &= b;
        }
    }

    /// Element-wise difference: clears every tile set in `other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn subtract(&mut self, other: &TileMask) {
        assert_eq!(
            (self.cols, self.rows),
            (other.cols, other.rows),
            "mask shape mismatch"
        );
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a &= !b;
        }
    }

    /// Sets every tile.
    pub fn fill(&mut self) {
        let n = self.len();
        for i in 0..n {
            self.set_flat(i, true);
        }
    }

    /// Clears every tile.
    pub fn clear(&mut self) {
        for w in &mut self.bits {
            *w = 0;
        }
    }

    fn flat(&self, index: TileIndex) -> usize {
        assert!(
            index.col < self.cols && index.row < self.rows,
            "tile {index} out of bounds for {}x{} mask",
            self.cols,
            self.rows
        );
        index.row * self.cols + index.col
    }
}

impl fmt::Debug for TileMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TileMask")
            .field("cols", &self.cols)
            .field("rows", &self.rows)
            .field("set", &self.count_set())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_4x4() -> TileGrid {
        TileGrid::new(256, 256, 64).unwrap()
    }

    #[test]
    fn grid_rejects_zero_tile_size() {
        assert!(TileGrid::new(64, 64, 0).is_err());
        assert!(TileGrid::new(0, 64, 64).is_err());
    }

    #[test]
    fn grid_counts_partial_tiles() {
        let g = TileGrid::new(130, 65, 64).unwrap();
        assert_eq!(g.cols(), 3);
        assert_eq!(g.rows(), 2);
        assert_eq!(g.tile_count(), 6);
        let (x0, y0, w, h) = g.tile_rect(TileIndex::new(2, 1));
        assert_eq!((x0, y0, w, h), (128, 64, 2, 1));
    }

    #[test]
    fn tile_of_pixel_maps_correctly() {
        let g = grid_4x4();
        assert_eq!(g.tile_of_pixel(0, 0), Some(TileIndex::new(0, 0)));
        assert_eq!(g.tile_of_pixel(63, 63), Some(TileIndex::new(0, 0)));
        assert_eq!(g.tile_of_pixel(64, 63), Some(TileIndex::new(1, 0)));
        assert_eq!(g.tile_of_pixel(255, 255), Some(TileIndex::new(3, 3)));
        assert_eq!(g.tile_of_pixel(256, 0), None);
    }

    #[test]
    fn flat_index_roundtrip() {
        let g = grid_4x4();
        for t in g.iter() {
            assert_eq!(g.from_flat_index(g.flat_index(t)), t);
        }
    }

    #[test]
    fn extract_insert_roundtrip() {
        let g = grid_4x4();
        let img = Raster::from_fn(256, 256, |x, y| ((x * 7 + y * 13) % 100) as f32 / 100.0);
        let t = TileIndex::new(2, 1);
        let tile = g.extract_tile(&img, t).unwrap();
        assert_eq!(tile.dimensions(), (64, 64));
        let mut out = Raster::new(256, 256);
        g.insert_tile(&mut out, t, &tile).unwrap();
        let back = g.extract_tile(&out, t).unwrap();
        assert_eq!(back, tile);
    }

    #[test]
    fn tile_view_matches_extract_tile() {
        let g = TileGrid::new(130, 65, 64).unwrap(); // includes partial tiles
        let img = Raster::from_fn(130, 65, |x, y| ((x * 31 + y * 17) % 97) as f32 / 97.0);
        for t in g.iter() {
            let copied = g.extract_tile(&img, t).unwrap();
            let view = g.tile_view(&img, t).unwrap();
            assert_eq!(view.to_raster(), copied, "tile {t}");
        }
        let wrong = Raster::new(64, 64);
        assert!(g.tile_view(&wrong, TileIndex::new(0, 0)).is_err());
    }

    #[test]
    fn insert_tile_writes_partial_edge_tile() {
        let g = TileGrid::new(130, 65, 64).unwrap();
        let t = TileIndex::new(2, 1); // 2x1 partial edge tile
        let patch = Raster::from_vec(2, 1, vec![0.25, 0.75]).unwrap();
        let mut img = Raster::new(130, 65);
        g.insert_tile(&mut img, t, &patch).unwrap();
        assert_eq!(g.extract_tile(&img, t).unwrap(), patch);
        assert_eq!((img.get(128, 64), img.get(129, 64)), (0.25, 0.75));
        let written = img.as_slice().iter().filter(|&&v| v != 0.0).count();
        assert_eq!(written, 2, "outside the tile untouched");
        assert!(g.insert_tile(&mut Raster::new(64, 64), t, &patch).is_err());
    }

    #[test]
    fn tile_mean_abs_diff_localizes_change() {
        let g = grid_4x4();
        let a = Raster::filled(256, 256, 0.5);
        let mut b = a.clone();
        // Perturb exactly one tile.
        for y in 64..128 {
            for x in 128..192 {
                b.set(x, y, 0.9);
            }
        }
        let diffs = g.tile_mean_abs_diff(&a, &b).unwrap();
        let changed = g.flat_index(TileIndex::new(2, 1));
        for (i, &d) in diffs.iter().enumerate() {
            if i == changed {
                assert!((d - 0.4).abs() < 1e-5);
            } else {
                assert!(d.abs() < 1e-6);
            }
        }
    }

    #[test]
    fn tile_fraction_counts_predicate_hits() {
        let g = TileGrid::new(128, 64, 64).unwrap();
        let img = Raster::from_fn(128, 64, |x, _| if x < 64 { 1.0 } else { 0.0 });
        let fractions = g.tile_fraction(&img, |v| v > 0.5).unwrap();
        assert!((fractions[0] - 1.0).abs() < 1e-6);
        assert!(fractions[1].abs() < 1e-6);
    }

    #[test]
    fn mask_set_get_count() {
        let g = grid_4x4();
        let mut m = TileMask::new(&g);
        assert_eq!(m.count_set(), 0);
        m.set(TileIndex::new(3, 3), true);
        m.set(TileIndex::new(0, 0), true);
        assert!(m.get(TileIndex::new(3, 3)));
        assert_eq!(m.count_set(), 2);
        assert!((m.fraction_set() - 2.0 / 16.0).abs() < 1e-12);
        m.set(TileIndex::new(3, 3), false);
        assert_eq!(m.count_set(), 1);
    }

    #[test]
    fn mask_set_operations() {
        let g = grid_4x4();
        let mut a = TileMask::new(&g);
        let mut b = TileMask::new(&g);
        a.set(TileIndex::new(0, 0), true);
        a.set(TileIndex::new(1, 0), true);
        b.set(TileIndex::new(1, 0), true);
        b.set(TileIndex::new(2, 0), true);

        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.count_set(), 3);

        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.count_set(), 1);
        assert!(i.get(TileIndex::new(1, 0)));

        let mut d = a.clone();
        d.subtract(&b);
        assert_eq!(d.count_set(), 1);
        assert!(d.get(TileIndex::new(0, 0)));
    }

    #[test]
    fn mask_from_scores_thresholds_strictly() {
        let g = TileGrid::new(128, 64, 64).unwrap();
        let m = TileMask::from_scores(&g, &[0.01, 0.02], 0.01);
        assert!(!m.get_flat(0));
        assert!(m.get_flat(1));
    }

    #[test]
    fn mask_fill_and_clear() {
        let g = grid_4x4();
        let mut m = TileMask::new(&g);
        m.fill();
        assert_eq!(m.count_set(), 16);
        m.clear();
        assert_eq!(m.count_set(), 0);
    }

    #[test]
    fn iter_set_yields_set_tiles_in_order() {
        let g = grid_4x4();
        let mut m = TileMask::new(&g);
        m.set(TileIndex::new(2, 0), true);
        m.set(TileIndex::new(1, 3), true);
        let set: Vec<_> = m.iter_set().collect();
        assert_eq!(set, vec![TileIndex::new(2, 0), TileIndex::new(1, 3)]);
    }

    #[test]
    fn mask_larger_than_64_tiles() {
        let g = TileGrid::new(1024, 1024, 64).unwrap(); // 256 tiles > one u64 word
        let mut m = TileMask::new(&g);
        m.set(TileIndex::new(15, 15), true);
        m.set(TileIndex::new(0, 1), true);
        assert_eq!(m.count_set(), 2);
        assert!(m.get(TileIndex::new(15, 15)));
    }
}
