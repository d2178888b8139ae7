//! Sensor model: additive noise and quantization.
//!
//! The paper notes that raw-sensor artefacts (noise, misalignment) are not
//! present in the public L1/L2 products it evaluates on (§5); we keep a
//! small additive Gaussian noise so that "unchanged" tiles still exhibit a
//! realistic noise floor (well below the θ = 0.01 change threshold), and
//! quantize to the 12-bit words typical of optical Earth-observation
//! sensors.

use crate::noise::{hash3, hash_normal};

/// Sensor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorModel {
    /// Standard deviation of additive Gaussian noise (on `[0, 1]` data).
    pub noise_sigma: f32,
    /// Quantization bit depth (e.g. 12).
    pub bit_depth: u32,
}

impl SensorModel {
    /// The default sensor: σ = 0.002, 12-bit quantization.
    pub fn standard() -> Self {
        SensorModel {
            noise_sigma: 0.002,
            bit_depth: 12,
        }
    }

    /// An ideal noiseless, unquantized sensor (for ablations).
    pub fn ideal() -> Self {
        SensorModel {
            noise_sigma: 0.0,
            bit_depth: 0,
        }
    }

    /// The noise stream of band `band_tag` in captures seeded `seed`.
    pub(crate) fn noise_key(seed: u64, band_tag: u64) -> u64 {
        seed ^ band_tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// One observed sample: `radiance` plus Gaussian noise, clamped to
    /// `[0, 1]` and quantized.
    ///
    /// Deterministic per `(key, pixel, day_idx)`, where `key` is the
    /// band's [`SensorModel::noise_key`] and `day_idx` the floored day.
    #[inline]
    pub(crate) fn observe(&self, radiance: f32, key: u64, x: usize, y: usize, day_idx: i64) -> f32 {
        let mut v = radiance;
        if self.noise_sigma > 0.0 {
            v += self.noise_sigma * hash_normal(hash3(key, x as i64, y as i64, day_idx));
        }
        v = v.clamp(0.0, 1.0);
        if self.bit_depth > 0 {
            let levels = ((1u64 << self.bit_depth) - 1) as f32;
            v = (v * levels).round() / levels;
        }
        v
    }
}

impl Default for SensorModel {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earthplus_raster::{mean_abs_diff, Raster};

    impl SensorModel {
        /// Observes every sample of `image` as band `band_tag` on `day`.
        fn apply(&self, image: &mut Raster, seed: u64, band_tag: u64, day: f64) {
            let key = SensorModel::noise_key(seed, band_tag);
            let width = image.width();
            for (i, v) in image.as_mut_slice().iter_mut().enumerate() {
                *v = self.observe(*v, key, i % width, i / width, day.floor() as i64);
            }
        }
    }

    #[test]
    fn ideal_sensor_only_clamps() {
        let mut img = Raster::from_vec(3, 1, vec![-0.2, 0.5, 1.4]).unwrap();
        SensorModel::ideal().apply(&mut img, 1, 2, 0.0);
        assert_eq!(img.as_slice(), &[0.0, 0.5, 1.0]);
    }

    #[test]
    fn noise_is_deterministic() {
        let make = || {
            let mut img = Raster::filled(32, 32, 0.5);
            SensorModel::standard().apply(&mut img, 7, 3, 12.0);
            img
        };
        assert_eq!(make().as_slice(), make().as_slice());
    }

    #[test]
    fn noise_differs_across_days_and_bands() {
        let run = |band: u64, day: f64| {
            let mut img = Raster::filled(32, 32, 0.5);
            SensorModel::standard().apply(&mut img, 7, band, day);
            img
        };
        assert_ne!(run(1, 1.0).as_slice(), run(1, 2.0).as_slice());
        assert_ne!(run(1, 1.0).as_slice(), run(2, 1.0).as_slice());
    }

    #[test]
    fn noise_floor_below_change_threshold() {
        // Two same-day-truth captures on different days differ only by
        // noise; the mean abs difference must sit far below theta = 0.01.
        let mut a = Raster::filled(64, 64, 0.4);
        let mut b = Raster::filled(64, 64, 0.4);
        let sensor = SensorModel::standard();
        sensor.apply(&mut a, 7, 1, 10.0);
        sensor.apply(&mut b, 7, 1, 11.0);
        let d = mean_abs_diff(&a, &b).unwrap();
        assert!(d < 0.005, "noise floor {d}");
        assert!(d > 0.0005, "noise floor suspiciously low: {d}");
    }

    #[test]
    fn quantization_respects_bit_depth() {
        let mut img = Raster::filled(4, 4, 0.123_456_7);
        SensorModel {
            noise_sigma: 0.0,
            bit_depth: 4,
        }
        .apply(&mut img, 1, 1, 0.0);
        let levels = 15.0;
        for &v in img.as_slice() {
            let scaled = v * levels;
            assert!((scaled - scaled.round()).abs() < 1e-5);
        }
    }
}
