//! Reference images, the ground-side reference pool, and the on-board
//! reference cache.

use earthplus_codec::{decode_level_limited, DecodeError, DecodeScratch, EncodedImage};
use earthplus_raster::{downsample_box, Band, LocationId, Raster, RasterError};
use std::collections::HashMap;

/// The paper's per-axis reference downsampling factor (51 per axis ⇒
/// 2601× fewer pixels, Appendix A). The single shared constant behind
/// `EarthPlusConfig::paper()`, the ground-service default, and the
/// uplink-ratio tests — change it here and every consumer tracks it.
pub const DEFAULT_REFERENCE_DOWNSAMPLE: usize = 51;

/// Why a reference could not be built from an encoded capture.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ReferenceFromEncodedError {
    /// The encoded stream failed to decode.
    Decode(DecodeError),
    /// The decoded geometry could not be resampled to the reference grid.
    Resample(RasterError),
}

impl std::fmt::Display for ReferenceFromEncodedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReferenceFromEncodedError::Decode(e) => write!(f, "decode failed: {e}"),
            ReferenceFromEncodedError::Resample(e) => write!(f, "resample failed: {e}"),
        }
    }
}

impl std::error::Error for ReferenceFromEncodedError {}

impl From<DecodeError> for ReferenceFromEncodedError {
    fn from(e: DecodeError) -> Self {
        ReferenceFromEncodedError::Decode(e)
    }
}

impl From<RasterError> for ReferenceFromEncodedError {
    fn from(e: RasterError) -> Self {
        ReferenceFromEncodedError::Resample(e)
    }
}

/// A (downsampled) reference image for one band of one location.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceImage {
    /// Location it references.
    pub location: LocationId,
    /// Band it references.
    pub band: Band,
    /// Mission day the underlying capture was taken.
    pub captured_day: f64,
    /// The downsampled reference raster.
    pub lowres: Raster,
    /// Per-axis box-downsampling factor used to produce `lowres`; captures
    /// must be shrunk with the *same* factor before comparison, or the two
    /// samplings disagree everywhere.
    pub downsample: usize,
    /// Full-resolution width of the underlying capture.
    pub full_width: usize,
    /// Full-resolution height of the underlying capture.
    pub full_height: usize,
}

impl ReferenceImage {
    /// Builds a reference by downsampling a full-resolution cloud-free
    /// band.
    ///
    /// # Errors
    ///
    /// Propagates resampling errors (e.g. a downsample factor exceeding
    /// the image size).
    pub fn from_capture(
        location: LocationId,
        band: Band,
        day: f64,
        full: &Raster,
        downsample: usize,
    ) -> Result<Self, RasterError> {
        let factor = downsample.min(full.width()).min(full.height()).max(1);
        Ok(ReferenceImage {
            location,
            band,
            captured_day: day,
            lowres: downsample_box(full, factor)?,
            downsample: factor,
            full_width: full.width(),
            full_height: full.height(),
        })
    }

    /// Builds a reference straight from an archived *encoded* capture,
    /// without materializing the full frame: only the coarse subband
    /// chunks needed for the reference resolution are decoded (the LL
    /// band alone at the paper's 51× operating point — on EPC2 that reads
    /// one chunk of the payload), then the low-pass raster is resampled
    /// onto the box-downsample grid.
    ///
    /// The result carries the same `downsample` factor and lowres
    /// geometry as [`ReferenceImage::from_capture`] on the decoded frame,
    /// so change detection compares captures against it with the exact
    /// same shrink factor. Content matches the full-decode path to within
    /// the wavelet-vs-box filter difference (the phase offset between LL
    /// samples at `stride·i` and block centres is corrected here by
    /// bilinear resampling at the block-centre positions).
    ///
    /// # Errors
    ///
    /// Propagates decode errors from a malformed stream and resampling
    /// errors (e.g. an empty capture).
    pub(crate) fn from_encoded(
        location: LocationId,
        band: Band,
        day: f64,
        encoded: &EncodedImage,
        downsample: usize,
        scratch: &mut DecodeScratch,
    ) -> Result<Self, ReferenceFromEncodedError> {
        let full_width = encoded.width() as usize;
        let full_height = encoded.height() as usize;
        let factor = downsample.min(full_width).min(full_height).max(1);
        let out_w = full_width.div_ceil(factor);
        let out_h = full_height.div_ceil(factor);
        // Deepest partial decode whose low-pass geometry still covers the
        // reference grid: never decode finer than the reference needs,
        // never coarser than it can interpolate from.
        let mut discard = 0u8;
        while discard < encoded.levels() {
            let (rw, rh) = encoded.reduced_dimensions(discard + 1);
            if rw < out_w || rh < out_h {
                break;
            }
            discard += 1;
        }
        let lowpass = decode_level_limited(encoded, discard, scratch)?;
        let lowres = resample_lowpass_to_box_grid(
            &lowpass,
            1usize << discard,
            factor,
            full_width,
            full_height,
            out_w,
            out_h,
        )?;
        Ok(ReferenceImage {
            location,
            band,
            captured_day: day,
            lowres,
            downsample: factor,
            full_width,
            full_height,
        })
    }

    /// Age of the reference at `now` in days.
    pub fn age_days(&self, now: f64) -> f64 {
        now - self.captured_day
    }

    /// Bytes needed to store / transmit the low-resolution raster at
    /// 12-bit depth.
    pub fn size_bytes(&self) -> u64 {
        (self.lowres.len() as u64 * 12).div_ceil(8)
    }

    /// Fixed bytes a serialized reference occupies before its samples:
    /// five `u32` dimensions.
    pub const RECORD_PAYLOAD_HEADER: usize = 20;

    /// Serializes the image fields a storage record does not already
    /// carry (location, band, and day live in the record key/day):
    /// five `u32` dimensions then the raw little-endian `f32` samples.
    pub(crate) fn to_record_payload(&self) -> Vec<u8> {
        let (w, h) = self.lowres.dimensions();
        let mut payload = Vec::with_capacity(Self::RECORD_PAYLOAD_HEADER + 4 * self.lowres.len());
        for dim in [
            self.full_width as u32,
            self.full_height as u32,
            self.downsample as u32,
            w as u32,
            h as u32,
        ] {
            payload.extend_from_slice(&dim.to_le_bytes());
        }
        for &sample in self.lowres.as_slice() {
            payload.extend_from_slice(&sample.to_le_bytes());
        }
        payload
    }

    /// Rebuilds a reference from a stored record. `None` when the payload
    /// is malformed (its length disagrees with the encoded dimensions) —
    /// which a CRC-checked storage layer turns into "never", but the
    /// decoder refuses to guess rather than panic.
    pub(crate) fn from_record_payload(
        location: LocationId,
        band: Band,
        day: f64,
        payload: &[u8],
    ) -> Option<Self> {
        if payload.len() < Self::RECORD_PAYLOAD_HEADER {
            return None;
        }
        let dim = |i: usize| {
            u32::from_le_bytes(payload[4 * i..4 * i + 4].try_into().expect("4 bytes")) as usize
        };
        let (full_width, full_height, downsample) = (dim(0), dim(1), dim(2));
        let (w, h) = (dim(3), dim(4));
        let samples = &payload[Self::RECORD_PAYLOAD_HEADER..];
        if samples.len() != w.checked_mul(h)?.checked_mul(4)? {
            return None;
        }
        let data: Vec<f32> = samples
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect();
        Some(ReferenceImage {
            location,
            band,
            captured_day: day,
            lowres: Raster::from_vec(w, h, data).ok()?,
            downsample,
            full_width,
            full_height,
        })
    }
}

/// Resamples a decoded low-pass band onto the box-downsample grid.
///
/// Low-pass sample `i` sits (up to boundary effects) at full-resolution
/// position `stride·i`, while box-downsampled pixel `j` represents the
/// mean of full-resolution pixels `[factor·j, min(factor·(j+1), size))` —
/// centred roughly half a block later. Bilinear interpolation between the
/// low-pass samples at each block's centre position aligns the two
/// samplings, so a reference built from a partial decode compares cleanly
/// against box-downsampled captures.
#[allow(clippy::too_many_arguments)]
fn resample_lowpass_to_box_grid(
    lowpass: &Raster,
    stride: usize,
    factor: usize,
    full_width: usize,
    full_height: usize,
    out_w: usize,
    out_h: usize,
) -> Result<Raster, RasterError> {
    if lowpass.is_empty() || out_w == 0 || out_h == 0 {
        return Err(RasterError::InvalidDimensions {
            reason: "cannot resample an empty low-pass band".to_owned(),
        });
    }
    let (lw, lh) = lowpass.dimensions();
    let mut out = Raster::new(out_w, out_h);
    let max_x = (lw - 1) as f64;
    let max_y = (lh - 1) as f64;
    let s = stride as f64;
    for oy in 0..out_h {
        let y0 = oy * factor;
        let y1 = (y0 + factor).min(full_height);
        let cy = (y0 + y1 - 1) as f64 / 2.0;
        let fy = (cy / s).clamp(0.0, max_y);
        let iy = fy.floor() as usize;
        let jy = (iy + 1).min(lh - 1);
        let ty = (fy - iy as f64) as f32;
        for ox in 0..out_w {
            let x0 = ox * factor;
            let x1 = (x0 + factor).min(full_width);
            let cx = (x0 + x1 - 1) as f64 / 2.0;
            let fx = (cx / s).clamp(0.0, max_x);
            let ix = fx.floor() as usize;
            let jx = (ix + 1).min(lw - 1);
            let tx = (fx - ix as f64) as f32;
            let top = lowpass.get(ix, iy) * (1.0 - tx) + lowpass.get(jx, iy) * tx;
            let bot = lowpass.get(ix, jy) * (1.0 - tx) + lowpass.get(jx, jy) * tx;
            out.set(ox, oy, top * (1.0 - ty) + bot * ty);
        }
    }
    Ok(out)
}

/// Ground-side pool of the freshest cloud-free reference per
/// (location, band).
///
/// Constellation-wide by construction: whichever satellite downloaded the
/// cloud-free image, the ground can select it and upload it to *any*
/// satellite (§4.1–4.2). The pool also retains the previous references so
/// experiments can reconstruct age CDFs (Figure 5).
#[derive(Debug, Default)]
pub struct ReferencePool {
    current: HashMap<(LocationId, Band), ReferenceImage>,
}

impl ReferencePool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Offers a new cloud-free reference; kept if fresher than the current
    /// one. Returns whether the pool updated.
    pub fn offer(&mut self, reference: ReferenceImage) -> bool {
        let key = (reference.location, reference.band);
        match self.current.get(&key) {
            Some(existing) if existing.captured_day >= reference.captured_day => false,
            _ => {
                self.current.insert(key, reference);
                true
            }
        }
    }

    /// The freshest reference for a location/band, if any.
    pub fn get(&self, location: LocationId, band: Band) -> Option<&ReferenceImage> {
        self.current.get(&(location, band))
    }

    /// Number of (location, band) entries.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.current.len()
    }
}

/// On-board cache of reference images for every location the satellite
/// will visit (§4.3, *Only uploading changed areas*).
#[derive(Debug, Default)]
pub struct OnboardReferenceCache {
    entries: HashMap<(LocationId, Band), ReferenceImage>,
}

impl OnboardReferenceCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cached reference for a location/band.
    pub fn get(&self, location: LocationId, band: Band) -> Option<&ReferenceImage> {
        self.entries.get(&(location, band))
    }

    /// Installs a full reference (first upload for a location).
    pub fn install(&mut self, reference: ReferenceImage) {
        self.entries
            .insert((reference.location, reference.band), reference);
    }

    /// Applies a delta update: overwrites the listed low-resolution pixels
    /// and advances the capture day. A message carrying a full reference
    /// replaces the entry outright — that is what the ground sends on a
    /// cold cache *and* on a resolution reconfiguration, where patching
    /// the old-geometry raster would corrupt it.
    pub fn apply_delta(
        &mut self,
        location: LocationId,
        band: Band,
        day: f64,
        pixels: &[(u32, f32)],
        full: Option<&ReferenceImage>,
    ) {
        if let Some(full) = full {
            self.install(full.clone());
            return;
        }
        if let Some(entry) = self.entries.get_mut(&(location, band)) {
            for &(idx, value) in pixels {
                let i = idx as usize;
                if i < entry.lowres.len() {
                    entry.lowres.as_mut_slice()[i] = value;
                }
            }
            entry.captured_day = day;
        }
    }

    /// Number of cached references.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earthplus_raster::{PlanetBand, Raster};

    fn band() -> Band {
        Band::Planet(PlanetBand::Red)
    }

    fn reference(day: f64, value: f32) -> ReferenceImage {
        let full = Raster::filled(256, 256, value);
        ReferenceImage::from_capture(LocationId(0), band(), day, &full, 51).unwrap()
    }

    #[test]
    fn downsampling_reduces_pixels_2601x() {
        let full = Raster::filled(510, 510, 0.5);
        let r = ReferenceImage::from_capture(LocationId(0), band(), 0.0, &full, 51).unwrap();
        assert_eq!(r.lowres.len() * 2601, full.len());
    }

    #[test]
    fn pool_keeps_freshest() {
        let mut pool = ReferencePool::new();
        assert!(pool.offer(reference(5.0, 0.1)));
        assert!(!pool.offer(reference(3.0, 0.2))); // older: rejected
        assert!(pool.offer(reference(9.0, 0.3)));
        let r = pool.get(LocationId(0), band()).unwrap();
        assert_eq!(r.captured_day, 9.0);
    }

    #[test]
    fn pool_separates_bands_and_locations() {
        let mut pool = ReferencePool::new();
        pool.offer(reference(1.0, 0.1));
        let mut other = reference(2.0, 0.2);
        other.band = Band::Planet(PlanetBand::Green);
        pool.offer(other);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.get(LocationId(0), band()).unwrap().captured_day, 1.0);
    }

    #[test]
    fn cache_applies_delta_pixels() {
        let mut cache = OnboardReferenceCache::new();
        cache.install(reference(1.0, 0.5));
        cache.apply_delta(LocationId(0), band(), 4.0, &[(0, 0.9), (3, 0.8)], None);
        let r = cache.get(LocationId(0), band()).unwrap();
        assert_eq!(r.captured_day, 4.0);
        assert_eq!(r.lowres.as_slice()[0], 0.9);
        assert_eq!(r.lowres.as_slice()[3], 0.8);
        assert_eq!(r.lowres.as_slice()[1], 0.5);
    }

    #[test]
    fn cache_installs_full_when_cold() {
        let mut cache = OnboardReferenceCache::new();
        let full = reference(2.0, 0.4);
        cache.apply_delta(LocationId(0), band(), 2.0, &[], Some(&full));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(LocationId(0), band()).unwrap().captured_day, 2.0);
    }

    #[test]
    fn full_resend_replaces_warm_entry() {
        // Resolution reconfiguration: the ground resends in full; the old
        // geometry must be replaced, not patched in place.
        let mut cache = OnboardReferenceCache::new();
        cache.install(reference(1.0, 0.5));
        let full = Raster::filled(256, 256, 0.8);
        let reconfigured =
            ReferenceImage::from_capture(LocationId(0), band(), 4.0, &full, 32).unwrap();
        cache.apply_delta(LocationId(0), band(), 4.0, &[], Some(&reconfigured));
        let r = cache.get(LocationId(0), band()).unwrap();
        assert_eq!(r.lowres.dimensions(), reconfigured.lowres.dimensions());
        assert_eq!(r.captured_day, 4.0);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn delta_ignores_out_of_range_pixels() {
        let mut cache = OnboardReferenceCache::new();
        cache.install(reference(1.0, 0.5));
        cache.apply_delta(LocationId(0), band(), 2.0, &[(10_000_000, 0.9)], None);
        // No panic; day still advanced.
        assert_eq!(cache.get(LocationId(0), band()).unwrap().captured_day, 2.0);
    }

    #[test]
    fn from_encoded_matches_from_capture_closely() {
        // The LL-only ingest path must produce a reference that agrees
        // with the historical full-decode + box-downsample path: same
        // geometry, same downsample factor, near-identical content.
        use earthplus_codec::{decode, encode, CodecConfig};
        let full = Raster::from_fn(510, 510, |x, y| {
            let fx = x as f32 / 510.0;
            let fy = y as f32 / 510.0;
            (0.45 + 0.3 * (fx * 5.0).sin() * (fy * 4.0).cos()).clamp(0.0, 1.0)
        });
        for config in [CodecConfig::lossy(), CodecConfig::lossless()] {
            let encoded = encode(&full, &config).unwrap();
            let decoded = decode(&encoded).unwrap();
            let via_capture = ReferenceImage::from_capture(
                LocationId(3),
                band(),
                4.0,
                &decoded,
                DEFAULT_REFERENCE_DOWNSAMPLE,
            )
            .unwrap();
            let mut scratch = earthplus_codec::DecodeScratch::new();
            let via_encoded = ReferenceImage::from_encoded(
                LocationId(3),
                band(),
                4.0,
                &encoded,
                DEFAULT_REFERENCE_DOWNSAMPLE,
                &mut scratch,
            )
            .unwrap();
            assert_eq!(
                via_encoded.lowres.dimensions(),
                via_capture.lowres.dimensions()
            );
            assert_eq!(via_encoded.downsample, via_capture.downsample);
            assert_eq!(via_encoded.full_width, 510);
            assert_eq!(via_encoded.full_height, 510);
            let mae =
                earthplus_raster::mean_abs_diff(&via_encoded.lowres, &via_capture.lowres).unwrap();
            assert!(mae < 0.01, "LL-only reference diverged: MAE {mae}");
            // And it must never have touched more than the coarse chunks.
            assert!(
                scratch.payload_bytes_read() * 4 < encoded.payload_len(),
                "ingest read {} of {} payload bytes",
                scratch.payload_bytes_read(),
                encoded.payload_len()
            );
        }
    }

    #[test]
    fn from_encoded_handles_tiny_factors_and_images() {
        use earthplus_codec::{encode, CodecConfig, DecodeScratch};
        let full = Raster::from_fn(13, 9, |x, y| ((x * 7 + y * 3) % 11) as f32 / 11.0);
        let encoded = encode(&full, &CodecConfig::lossless()).unwrap();
        let mut scratch = DecodeScratch::new();
        for factor in [1usize, 2, 5, 100] {
            let r = ReferenceImage::from_encoded(
                LocationId(0),
                band(),
                1.0,
                &encoded,
                factor,
                &mut scratch,
            )
            .unwrap();
            let clamped = factor.clamp(1, 9);
            assert_eq!(r.downsample, clamped);
            assert_eq!(
                r.lowres.dimensions(),
                (13usize.div_ceil(clamped), 9usize.div_ceil(clamped))
            );
        }
    }

    #[test]
    fn age_computation() {
        let r = reference(10.0, 0.5);
        assert_eq!(r.age_days(14.5), 4.5);
    }

    #[test]
    fn record_payload_round_trip_is_bit_exact() {
        let r = reference(7.5, 0.4);
        let payload = r.to_record_payload();
        assert_eq!(
            payload.len(),
            ReferenceImage::RECORD_PAYLOAD_HEADER + 4 * r.lowres.len()
        );
        let back =
            ReferenceImage::from_record_payload(r.location, r.band, r.captured_day, &payload)
                .unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn malformed_payload_is_refused() {
        let r = reference(1.0, 0.2);
        let mut payload = r.to_record_payload();
        payload.truncate(payload.len() - 3); // length no longer matches w*h
        assert!(ReferenceImage::from_record_payload(r.location, r.band, 1.0, &payload).is_none());
        assert!(ReferenceImage::from_record_payload(r.location, r.band, 1.0, &[0; 7]).is_none());
    }

    #[test]
    fn hostile_header_dimensions_are_refused_not_overflowed() {
        // w * h fits a usize but the 4-byte sample count does not.
        let mut payload = vec![0u8; ReferenceImage::RECORD_PAYLOAD_HEADER];
        for (i, dim) in [64u32, 64, 1, 1 << 31, 1 << 31].into_iter().enumerate() {
            payload[4 * i..4 * i + 4].copy_from_slice(&dim.to_le_bytes());
        }
        assert!(
            ReferenceImage::from_record_payload(LocationId(0), band(), 1.0, &payload).is_none()
        );
    }

    #[test]
    fn size_accounting_12bit() {
        let r = reference(0.0, 0.5);
        let px = r.lowres.len() as u64;
        assert_eq!(r.size_bytes(), (px * 12).div_ceil(8));
    }
}
