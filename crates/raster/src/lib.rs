//! Imagery substrate for the Earth+ reproduction.
//!
//! This crate provides the low-level raster machinery that every other crate
//! in the workspace builds on:
//!
//! * [`Raster`] — a single-band two-dimensional image of `f32` samples
//!   normalized to `[0, 1]` (the paper normalizes pixel values to `[0, 1]`
//!   before computing tile differences, §3).
//! * [`MultiBandImage`] — an ordered collection of co-registered bands, the
//!   unit a satellite captures in one pass.
//! * [`Band`] — the spectral-band taxonomy (Sentinel-2 B1–B12 + B8a and
//!   PlanetScope RGB + NIR) together with per-band physical metadata.
//! * [`TileGrid`] / [`TileMask`] — the 64×64-pixel tiling used by Earth+'s
//!   change detection and region-of-interest encoding (§3).
//! * [`resample`] — box-filter downsampling and bilinear upsampling, used to
//!   compress reference images for the narrow uplink (§4.3).
//! * [`metrics`] — MSE / PSNR and per-tile difference statistics (§2.2 uses
//!   PSNR as the image-quality metric).
//! * [`align`] — least-squares illumination alignment between a capture and a
//!   reference (§5: "illumination condition affects the pixel value
//!   linearly").
//! * [`available_cores`] and [`fan_out`] — the one host core-count probe,
//!   and the one pool of kept worker threads every fan-out of the
//!   workspace (codec tiles and subband chunks, scene row blocks) runs on.
//!
//! # Example
//!
//! ```
//! use earthplus_raster::{Raster, TileGrid};
//!
//! # fn main() -> Result<(), earthplus_raster::RasterError> {
//! let image = Raster::from_fn(256, 256, |x, y| ((x + y) % 7) as f32 / 7.0);
//! let grid = TileGrid::new(image.width(), image.height(), 64)?;
//! assert_eq!(grid.tile_count(), 16);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Index-based loops here are deliberate: the numeric kernels index several
// buffers with arithmetic on the same induction variable.
#![allow(clippy::needless_range_loop)]

pub mod align;
pub mod band;
pub mod geo;
mod host;
pub mod metrics;
pub mod multiband;
pub mod raster;
pub mod resample;
pub mod tile;
pub mod view;

mod error;

pub use align::{AlignmentModel, IlluminationAligner};
pub use band::{Band, BandKind, PlanetBand, Sentinel2Band};
pub use error::RasterError;
pub use geo::{GeoCell, LocationId};
pub use host::{available_cores, fan_out, pool_threads, PoolCall, PoolJob};
pub use metrics::{mean_abs_diff, mse, psnr, psnr_from_mse, PixelStats};
pub use multiband::MultiBandImage;
pub use raster::Raster;
pub use resample::{downsample_box, upsample_bilinear};
pub use tile::{TileGrid, TileIndex, TileMask};
pub use view::TileView;
