//! System configuration and the Doves constellation specification.

/// The real-world Doves specification the evaluation uses (Table 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DovesSpec {
    /// Ground contact duration in seconds.
    pub contact_duration_s: f64,
    /// Ground contacts per day.
    pub contacts_per_day: u32,
    /// Uplink bandwidth, bits per second.
    pub uplink_bps: f64,
    /// Downlink bandwidth, bits per second.
    pub downlink_bps: f64,
    /// On-board storage, bytes.
    pub onboard_storage_bytes: u64,
    /// Capture width, pixels.
    pub image_width_px: u32,
    /// Capture height, pixels.
    pub image_height_px: u32,
    /// Number of image channels (RGB + infrared).
    pub image_channels: u32,
    /// Raw capture file size, bytes.
    pub raw_image_bytes: u64,
    /// Ground sampling distance, metres.
    pub gsd_m: f64,
    /// Days for one satellite to revisit the same location (lower bound).
    pub revisit_days_min: u32,
    /// Days for one satellite to revisit the same location (upper bound).
    pub revisit_days_max: u32,
    /// Megabytes needed to store 1 km² of encoded imagery (Appendix A).
    pub encoded_mb_per_km2: f64,
}

impl DovesSpec {
    /// The 2017–2018 Doves values from Table 1 and Appendix A.
    pub fn table1() -> Self {
        DovesSpec {
            contact_duration_s: 600.0,
            contacts_per_day: 7,
            uplink_bps: 250_000.0,
            downlink_bps: 200_000_000.0,
            onboard_storage_bytes: 360 * 1_000_000_000,
            image_width_px: 6600,
            image_height_px: 4400,
            image_channels: 4,
            raw_image_bytes: 150 * 1_000_000,
            gsd_m: 3.7,
            revisit_days_min: 10,
            revisit_days_max: 15,
            encoded_mb_per_km2: 0.87,
        }
    }

    /// Pixels per capture per channel.
    pub fn pixels_per_capture(&self) -> u64 {
        self.image_width_px as u64 * self.image_height_px as u64
    }

    /// Area of one capture footprint in km².
    pub fn capture_area_km2(&self) -> f64 {
        let w = self.image_width_px as f64 * self.gsd_m / 1000.0;
        let h = self.image_height_px as f64 * self.gsd_m / 1000.0;
        w * h
    }

    /// Bytes uploadable per ground contact.
    pub fn uplink_bytes_per_contact(&self) -> u64 {
        (self.uplink_bps * self.contact_duration_s / 8.0) as u64
    }
}

/// Earth+ system parameters (§4.3, §5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EarthPlusConfig {
    /// Tile side length in pixels (64 by default, §3).
    pub tile_size: usize,
    /// Change-detection threshold θ on the mean absolute per-tile pixel
    /// difference of `[0, 1]`-normalized, illumination-aligned data
    /// (0.01, §3 footnote 5).
    pub theta: f32,
    /// Per-axis downsampling factor for uploaded reference images (51 per
    /// axis ⇒ 2601× fewer pixels, Appendix A).
    pub reference_downsample: usize,
    /// Bits per pixel budget γ for each encoded changed tile (§5).
    pub gamma_bpp: f64,
    /// Captures with more cloud than this fraction are dropped on board
    /// (0.5, §5).
    pub cloud_drop_threshold: f64,
    /// Maximum cloud fraction for a capture to become a reference (< 1 %,
    /// §3).
    pub reference_cloud_max: f64,
    /// Days between guaranteed full downloads (once a month, §5).
    pub guaranteed_period_days: f64,
    /// On-board cloud detector leaf-purity threshold (precision knob, §5).
    pub cloud_score_threshold: f32,
    /// Factor below θ at which the on-board detector actually triggers:
    /// "to minimize the false negatives, Earth+ uses a low threshold θ to
    /// detect more changed tiles" (§4.3). Detection fires at
    /// `theta * detection_margin`.
    pub detection_margin: f32,
}

impl EarthPlusConfig {
    /// The paper's operating point.
    pub fn paper() -> Self {
        EarthPlusConfig {
            tile_size: 64,
            theta: 0.01,
            reference_downsample: earthplus_ground::DEFAULT_REFERENCE_DOWNSAMPLE,
            gamma_bpp: 1.0,
            cloud_drop_threshold: 0.5,
            reference_cloud_max: 0.01,
            guaranteed_period_days: 30.0,
            cloud_score_threshold: 0.95,
            detection_margin: 0.6,
        }
    }

    /// The effective change-detection trigger level.
    pub fn detection_theta(&self) -> f32 {
        self.theta * self.detection_margin
    }

    /// Overrides the per-tile bit budget γ (the PSNR–bandwidth trade-off
    /// knob swept in Figure 11).
    pub fn with_gamma(mut self, gamma_bpp: f64) -> Self {
        self.gamma_bpp = gamma_bpp;
        self
    }

    /// Overrides the reference downsampling factor (the uplink compression
    /// knob swept in Figure 8).
    pub fn with_reference_downsample(mut self, factor: usize) -> Self {
        self.reference_downsample = factor;
        self
    }

    /// Overrides θ.
    pub fn with_theta(mut self, theta: f32) -> Self {
        self.theta = theta;
        self
    }

    /// Bytes of budget per encoded tile of `tile_size²` pixels at γ.
    pub fn tile_budget_bytes(&self) -> usize {
        earthplus_codec::tile_budget_bytes(self.gamma_bpp, self.tile_size * self.tile_size)
    }
}

impl Default for EarthPlusConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let spec = DovesSpec::table1();
        assert_eq!(spec.contacts_per_day, 7);
        assert_eq!(spec.uplink_bps, 250_000.0);
        assert_eq!(spec.downlink_bps, 200_000_000.0);
        assert_eq!(spec.onboard_storage_bytes, 360_000_000_000);
        assert_eq!(spec.raw_image_bytes, 150_000_000);
        assert_eq!(spec.image_width_px, 6600);
        assert_eq!(spec.image_height_px, 4400);
    }

    #[test]
    fn capture_area_about_400_km2() {
        // §2.2 footnote 3: "each satellite image covers an area of 400 km²".
        let area = DovesSpec::table1().capture_area_km2();
        assert!((area - 400.0).abs() < 5.0, "area {area}");
    }

    #[test]
    fn uplink_contact_budget() {
        // 250 kbps x 600 s = 18.75 MB.
        assert_eq!(DovesSpec::table1().uplink_bytes_per_contact(), 18_750_000);
    }

    #[test]
    fn paper_config_values() {
        let c = EarthPlusConfig::paper();
        assert_eq!(c.tile_size, 64);
        assert_eq!(c.theta, 0.01);
        assert_eq!(c.reference_downsample, 51);
        assert_eq!(
            c.reference_downsample,
            earthplus_ground::DEFAULT_REFERENCE_DOWNSAMPLE,
            "paper config must track the shared ground constant"
        );
        assert_eq!(c.guaranteed_period_days, 30.0);
        // 2601x pixel reduction (Appendix A).
        assert_eq!(c.reference_downsample * c.reference_downsample, 2601);
    }

    #[test]
    fn gamma_budget_conversion() {
        let c = EarthPlusConfig::paper().with_gamma(1.0);
        // 1 bpp x 4096 px / 8 = 512 bytes per tile.
        assert_eq!(c.tile_budget_bytes(), 512);
    }
}
