//! Aggregation of simulation records into the paper's metrics.

use crate::simulator::SimulationConfig;
use crate::strategy::CaptureReport;
use earthplus_orbit::CONTACT_DURATION_S;
use earthplus_raster::PixelStats;

/// Mean bytes queued per (non-dropped) capture, at simulation scale.
pub fn mean_bytes_per_capture(records: &[CaptureReport]) -> f64 {
    let delivered: Vec<&CaptureReport> = records.iter().filter(|r| !r.dropped).collect();
    if delivered.is_empty() {
        return 0.0;
    }
    delivered
        .iter()
        .map(|r| r.downloaded_bytes as f64)
        .sum::<f64>()
        / delivered.len() as f64
}

/// The paper's downlink metric (§6.1): data streamed during one ground
/// contact divided by the contact duration, reported in Mbps at the
/// paper's full image scale.
pub fn required_downlink_mbps(records: &[CaptureReport], config: &SimulationConfig) -> f64 {
    let per_capture = mean_bytes_per_capture(records) * config.pixel_scale;
    per_capture * config.images_per_contact * 8.0 / CONTACT_DURATION_S / 1e6
}

/// PSNR statistics over delivered captures.
pub fn psnr_stats(records: &[CaptureReport]) -> PixelStats {
    PixelStats::from_samples(records.iter().filter_map(|r| r.psnr_db))
}

/// Downloaded-tile-fraction statistics over delivered captures.
pub fn tile_fraction_stats(records: &[CaptureReport]) -> PixelStats {
    PixelStats::from_samples(
        records
            .iter()
            .filter(|r| !r.dropped)
            .map(|r| r.downloaded_tile_fraction),
    )
}

/// Downlink saving of `ours` relative to `baseline` (§6.2): baseline bytes
/// divided by our bytes, for the same delivered imagery.
pub fn downlink_saving(baseline: &[CaptureReport], ours: &[CaptureReport]) -> f64 {
    let b = mean_bytes_per_capture(baseline);
    let o = mean_bytes_per_capture(ours);
    if o == 0.0 {
        f64::INFINITY
    } else {
        b / o
    }
}

/// Compression ratio in the Figure 19 sense: reciprocal of the mean
/// downloaded-area fraction ("10 % changed areas ⇒ 10× compression").
pub fn area_compression_ratio(records: &[CaptureReport]) -> f64 {
    let stats = tile_fraction_stats(records);
    if stats.count == 0 || stats.mean <= 0.0 {
        return f64::INFINITY;
    }
    1.0 / stats.mean
}

/// Mean per-stage runtimes over delivered captures (Figure 16).
pub fn mean_timings(records: &[CaptureReport]) -> crate::strategy::StageTimings {
    let delivered: Vec<&CaptureReport> = records.iter().filter(|r| !r.dropped).collect();
    if delivered.is_empty() {
        return Default::default();
    }
    let n = delivered.len() as f64;
    crate::strategy::StageTimings {
        cloud_s: delivered.iter().map(|r| r.timings.cloud_s).sum::<f64>() / n,
        change_s: delivered.iter().map(|r| r.timings.change_s).sum::<f64>() / n,
        encode_s: delivered.iter().map(|r| r.timings.encode_s).sum::<f64>() / n,
    }
}

/// Reference-age statistics over captures that used a reference.
pub fn reference_age_stats(records: &[CaptureReport]) -> PixelStats {
    PixelStats::from_samples(records.iter().filter_map(|r| r.reference_age_days))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::StageTimings;
    use earthplus_orbit::{LinkModel, SatelliteId};
    use earthplus_raster::LocationId;

    fn record(bytes: u64, frac: f64, psnr: Option<f64>, dropped: bool) -> CaptureReport {
        CaptureReport {
            day: 1.0,
            satellite: SatelliteId(0),
            location: LocationId(0),
            cloud_fraction: 0.0,
            dropped,
            guaranteed: false,
            downloaded_bytes: bytes,
            downloaded_tile_fraction: frac,
            psnr_db: psnr,
            reference_age_days: None,
            timings: StageTimings::default(),
            band_bytes: Vec::new(),
            trace: earthplus_telemetry::TraceId::NONE,
        }
    }

    fn config() -> SimulationConfig {
        SimulationConfig {
            seed: 0,
            eval_from_day: 0,
            eval_days: 10,
            uplink: LinkModel::doves_uplink(),
            images_per_contact: 35.0,
            pixel_scale: 1.0,
        }
    }

    #[test]
    fn mean_bytes_excludes_dropped() {
        let records = vec![
            record(100, 0.5, Some(30.0), false),
            record(0, 0.0, None, true),
            record(300, 0.5, Some(30.0), false),
        ];
        assert_eq!(mean_bytes_per_capture(&records), 200.0);
    }

    #[test]
    fn downlink_mbps_formula() {
        let records = vec![record(600_000, 0.5, None, false)];
        // 600 kB x 35 per contact x 8 bits / 600 s = 0.28 Mbps.
        let mbps = required_downlink_mbps(&records, &config());
        assert!((mbps - 0.28).abs() < 1e-9, "mbps {mbps}");
    }

    #[test]
    fn saving_ratio() {
        let base = vec![record(1000, 1.0, None, false)];
        let ours = vec![record(250, 0.25, None, false)];
        assert_eq!(downlink_saving(&base, &ours), 4.0);
    }

    #[test]
    fn area_ratio_is_reciprocal_of_fraction() {
        let records = vec![record(1, 0.1, None, false), record(1, 0.3, None, false)];
        assert!((area_compression_ratio(&records) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn psnr_stats_skip_missing() {
        let records = vec![
            record(1, 0.1, Some(30.0), false),
            record(1, 0.1, None, false),
            record(1, 0.1, Some(40.0), false),
        ];
        let s = psnr_stats(&records);
        assert_eq!(s.count, 2);
        assert!((s.mean - 35.0).abs() < 1e-9);
    }

    #[test]
    fn empty_records_do_not_panic() {
        assert_eq!(mean_bytes_per_capture(&[]), 0.0);
        assert_eq!(required_downlink_mbps(&[], &config()), 0.0);
        assert!(area_compression_ratio(&[]).is_infinite());
        assert_eq!(psnr_stats(&[]).count, 0);
    }
}
