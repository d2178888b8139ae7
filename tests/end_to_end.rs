//! End-to-end integration: the full Earth+ loop against both baselines on
//! a small Planet-like mission, checking the paper's headline directions.

use earthplus::metrics;
use earthplus::prelude::*;
use earthplus::UplinkReport;
use earthplus_cloud::{train_onboard_detector, TrainingConfig};
use earthplus_orbit::LinkModel;
use earthplus_raster::{Band, LocationId};
use earthplus_scene::large_constellation;
use std::sync::OnceLock;

fn small_mission() -> (MissionSimulator, earthplus_scene::DatasetConfig) {
    let mut dataset = large_constellation(42, 256);
    dataset.duration_days = 45;
    let mut config = SimulationConfig::for_dataset(&dataset, 42);
    config.eval_from_day = 40;
    config.eval_days = 45;
    config.uplink = LinkModel::doves_uplink();
    let sim = MissionSimulator::from_dataset(&dataset, config);
    (sim, dataset)
}

/// Every (location, band) the mission serves.
fn targets(dataset: &earthplus_scene::DatasetConfig) -> Vec<(LocationId, Band)> {
    dataset
        .locations
        .iter()
        .flat_map(|l| l.bands.iter().map(|&b| (l.location, b)))
        .collect()
}

/// FNV-1a over every [`CaptureReport`] field except the wall-clock
/// `timings` and the `trace` id; floats are hashed by bit pattern. With
/// `with_bytes` false the wire-size fields (`downloaded_bytes` and
/// `band_bytes`) are skipped too, so the hash pins *what* was downloaded
/// and how well it reconstructs independently of how many bytes the
/// bitstream format spends on it.
fn report_hash(records: &[CaptureReport], with_bytes: bool) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    let opt = |v: Option<f64>| v.map_or([0xff; 8], |v| v.to_bits().to_le_bytes());
    for r in records {
        eat(&r.day.to_bits().to_le_bytes());
        eat(&r.satellite.0.to_le_bytes());
        eat(&r.location.0.to_le_bytes());
        eat(&r.cloud_fraction.to_bits().to_le_bytes());
        eat(&[r.dropped as u8, r.guaranteed as u8]);
        if with_bytes {
            eat(&r.downloaded_bytes.to_le_bytes());
        }
        eat(&r.downloaded_tile_fraction.to_bits().to_le_bytes());
        eat(&[r.psnr_db.is_some() as u8]);
        eat(&opt(r.psnr_db));
        eat(&[r.reference_age_days.is_some() as u8]);
        eat(&opt(r.reference_age_days));
        if with_bytes {
            eat(&(r.band_bytes.len() as u64).to_le_bytes());
            for (band, bytes) in &r.band_bytes {
                eat(band.name().as_bytes());
                eat(&bytes.to_le_bytes());
            }
        }
    }
    hash
}

#[test]
fn earthplus_beats_baselines_on_downlink_without_losing_quality() {
    let (sim, dataset) = small_mission();
    let detector = train_onboard_detector(&sim.scenes()[0], &TrainingConfig::default());

    // γ=2 bits/pixel sits in the steep region of the codec's RD curve —
    // the regime Figure 11's crossover lives in.
    let config = EarthPlusConfig::paper().with_gamma(2.0);
    let mut earthplus = EarthPlusStrategy::new(config, detector.clone(), targets(&dataset));
    let mut kodan = KodanStrategy::new(config);
    let mut satroi = SatRoiStrategy::new(config, detector.clone());
    let report = sim.run(&mut [&mut earthplus, &mut kodan, &mut satroi]);

    let ep = report.records("earth+");
    let kd = report.records("kodan");
    let sr = report.records("satroi");
    assert!(!ep.is_empty(), "no captures simulated");

    // Headline: at the same per-tile budget γ, Earth+ uses materially less
    // downlink than the strongest baseline (paper: 2.8-3.3x on the Planet
    // dataset).
    let saving_kodan = metrics::downlink_saving(kd, ep);
    let saving_satroi = metrics::downlink_saving(sr, ep);
    let best = saving_kodan.min(saving_satroi);
    assert!(
        best > 1.5,
        "saving vs kodan {saving_kodan:.2}, vs satroi {saving_satroi:.2}"
    );

    // The trade-off claim of Figure 11: at *matched bandwidth*, Earth+
    // delivers better quality. Rate-match Kodan down to Earth+'s byte
    // budget by shrinking its γ, and compare PSNR.
    let matched_gamma = config.gamma_bpp / best;
    let mut kodan_matched = KodanStrategy::new(config.with_gamma(matched_gamma));
    let report2 = sim.run(&mut [&mut kodan_matched]);
    let kd_matched = report2.records("kodan");
    let ep_psnr = metrics::psnr_stats(ep).mean;
    let kd_matched_psnr = metrics::psnr_stats(kd_matched).mean;
    // Non-inferiority at this micro scale (16 tiles, ~12 captures). The
    // strict dominance of Figure 11 is not checked at full scale anywhere:
    // the fig11a/fig11b experiments in earthplus-bench only report it.
    assert!(
        ep_psnr > kd_matched_psnr - 0.5,
        "at matched bandwidth: earth+ {ep_psnr:.1} dB vs kodan {kd_matched_psnr:.1} dB"
    );
    assert!(ep_psnr > 30.0, "earth+ PSNR too low: {ep_psnr:.1}");

    // Earth+ downloads far fewer tiles.
    let ep_frac = metrics::tile_fraction_stats(ep).mean;
    let kd_frac = metrics::tile_fraction_stats(kd).mean;
    assert!(
        ep_frac < kd_frac,
        "earth+ tiles {ep_frac:.2} vs kodan {kd_frac:.2}"
    );

    // Uplink stays within the 250 kbps budget at every contact.
    for r in &report.uplink["earth+"] {
        assert!(r.bytes_used <= r.bytes_budget, "uplink overrun: {r:?}");
    }

    // Storage: Earth+ uses references but less total storage than Kodan.
    let ep_storage = report.storage["earth+"];
    let kd_storage = report.storage["kodan"];
    assert!(ep_storage.total() < kd_storage.total());
}

#[test]
fn guaranteed_downloads_occur_monthly() {
    let (sim, dataset) = small_mission();
    let detector = train_onboard_detector(&sim.scenes()[0], &TrainingConfig::default());
    let mut earthplus =
        EarthPlusStrategy::new(EarthPlusConfig::paper(), detector, targets(&dataset));
    let report = sim.run(&mut [&mut earthplus]);
    let guaranteed: Vec<f64> = report
        .records("earth+")
        .iter()
        .filter(|r| r.guaranteed)
        .map(|r| r.day)
        .collect();
    assert!(
        !guaranteed.is_empty(),
        "no guaranteed downloads in 45 days (first capture must be one)"
    );
    // Consecutive guaranteed downloads for the single location are >= the
    // configured period apart.
    for w in guaranteed.windows(2) {
        assert!(
            w[1] - w[0] >= EarthPlusConfig::paper().guaranteed_period_days - 1e-9,
            "guaranteed downloads too close: {w:?}"
        );
    }
}

/// FNV-1a over a strategy's uplink reports, in order: `bytes_used`,
/// `bytes_budget`, `deltas_sent`, `deltas_skipped` of every window.
fn uplink_hash(reports: &[UplinkReport]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for r in reports {
        for v in [
            r.bytes_used,
            r.bytes_budget,
            r.deltas_sent as u64,
            r.deltas_skipped as u64,
        ] {
            for b in v.to_le_bytes() {
                hash ^= b as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    hash
}

/// Every strategy's report hashes on the small mission at the default
/// config, `(captures with bytes, captures without bytes, uplink)` per
/// strategy in the order earth+, kodan, satroi. The mission runs once and
/// the three golden tests below share it.
fn default_config_report_hashes() -> [(u64, u64, u64); 3] {
    static HASHES: OnceLock<[(u64, u64, u64); 3]> = OnceLock::new();
    *HASHES.get_or_init(|| {
        let (sim, dataset) = small_mission();
        let detector = train_onboard_detector(&sim.scenes()[0], &TrainingConfig::default());
        let config = EarthPlusConfig::default();
        let mut earthplus = EarthPlusStrategy::new(config, detector.clone(), targets(&dataset));
        let mut kodan = KodanStrategy::new(config);
        let mut satroi = SatRoiStrategy::new(config, detector);
        let report = sim.run(&mut [&mut earthplus, &mut kodan, &mut satroi]);
        ["earth+", "kodan", "satroi"].map(|name| {
            let records = report.records(name);
            (
                report_hash(records, true),
                report_hash(records, false),
                uplink_hash(&report.uplink[name]),
            )
        })
    })
}

/// Pins every strategy's capture reports (all fields but wall-clock
/// timings and trace ids) on the small mission at the default config, so
/// a refactor of the shared capture loop cannot silently move bytes,
/// tile fractions, PSNR, or reference ages.
#[test]
fn strategy_reports_match_golden() {
    let hashes = default_config_report_hashes().map(|(with_bytes, _, _)| with_bytes);
    assert_eq!(
        hashes,
        [
            0x30e4_9bce_8ccc_a80c,
            0xbf97_8475_31e8_ed4a,
            0x3793_bf2e_8e71_40e5
        ],
        "capture reports drifted (earth+, kodan, satroi): {hashes:#018x?}"
    );
}

/// The same reports without their wire-size fields: a change that only
/// re-encodes the bitstream header moves the golden above but must leave
/// this one — tile choices, PSNR, reference ages — untouched.
#[test]
fn strategy_reports_match_golden_without_bytes() {
    let hashes = default_config_report_hashes().map(|(_, without_bytes, _)| without_bytes);
    assert_eq!(
        hashes,
        [
            0xf19d_1686_7f27_749e,
            0xaee4_b09e_b3d5_d83c,
            0x6a6f_4427_0c73_b2c7
        ],
        "byte-independent capture reports drifted (earth+, kodan, satroi): {hashes:#018x?}"
    );
}

/// Pins every strategy's per-window uplink reports on the same mission:
/// Earth+'s planned uploads and the baselines' budget-only windows.
#[test]
fn strategy_uplink_reports_match_golden() {
    let hashes = default_config_report_hashes().map(|(_, _, uplink)| uplink);
    assert_eq!(
        hashes,
        [
            0xa0dc_7999_d9b0_0589,
            0xd4a9_f9b6_c19f_5869,
            0xd4a9_f9b6_c19f_5869
        ],
        "uplink reports drifted (earth+, kodan, satroi): {hashes:#018x?}"
    );
}
