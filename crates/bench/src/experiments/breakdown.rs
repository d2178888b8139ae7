//! Figures 14–16: per-location/per-band savings, storage, and runtime.

use super::{base_config, dataset_targets, restrict, shared_detector};
use crate::{fmt, ExperimentResult};
use earthplus::metrics;
use earthplus::prelude::*;
use earthplus::StorageModel;
use earthplus_raster::Band;
use std::collections::HashMap;

/// Figure 14: downlink saving (strongest baseline over Earth+) per
/// location and per band. The paper: 10 of 11 locations improve (snowy H
/// does not, D marginally); all 13 bands improve, ground bands most.
pub fn fig14() -> ExperimentResult {
    let dataset = restrict(
        earthplus_scene::rich_content(31, 256),
        &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
        None, // all 13 bands
        90,
    );
    let sim = MissionSimulator::from_dataset(&dataset, SimulationConfig::for_dataset(&dataset, 31));
    let detector = shared_detector(&sim);
    let config = base_config(&dataset);
    let mut earthplus = EarthPlusStrategy::new(config, detector.clone(), dataset_targets(&dataset));
    let mut kodan = KodanStrategy::new(config);
    let report = sim.run(&mut [&mut earthplus, &mut kodan]);
    let ep = report.records("earth+");
    let kd = report.records("kodan");

    let mut rows = Vec::new();
    // Per-location savings.
    let mut snowy_low = true;
    let mut improved = 0usize;
    for scene in sim.scenes() {
        let loc = scene.config().location;
        let ep_loc: Vec<_> = ep.iter().filter(|r| r.location == loc).cloned().collect();
        let kd_loc: Vec<_> = kd.iter().filter(|r| r.location == loc).cloned().collect();
        let saving = metrics::downlink_saving(&kd_loc, &ep_loc);
        if saving > 1.05 {
            improved += 1;
        }
        if loc.label() == "H" && saving > 1.5 {
            snowy_low = false;
        }
        rows.push(vec![
            format!("location {}", loc.label()),
            scene.config().archetype.name().into(),
            fmt(saving, 2),
        ]);
    }
    // Per-band savings (pooled over locations).
    let band_bytes = |records: &[earthplus::CaptureReport]| -> HashMap<Band, u64> {
        let mut m = HashMap::new();
        for r in records {
            for &(band, bytes) in &r.band_bytes {
                *m.entry(band).or_insert(0u64) += bytes;
            }
        }
        m
    };
    let ep_bands = band_bytes(ep);
    let kd_bands = band_bytes(kd);
    for band in Band::sentinel2_all() {
        let e = *ep_bands.get(&band).unwrap_or(&0) as f64;
        let k = *kd_bands.get(&band).unwrap_or(&0) as f64;
        let saving = if e > 0.0 { k / e } else { f64::INFINITY };
        rows.push(vec![
            format!("band {}", band.name()),
            format!("{:?}", band.kind()),
            fmt(saving, 2),
        ]);
    }
    ExperimentResult {
        id: "fig14",
        title: "Downlink saving per location and per band (paper Fig. 14)",
        header: vec!["group".into(), "kind".into(), "saving_x".into()],
        rows,
        summary: format!(
            "{improved}/11 locations improve; snowy H {} (paper: no improvement on H, all 13 \
             bands improve with ground bands highest)",
            if snowy_low {
                "shows little/no gain as in the paper"
            } else {
                "unexpectedly improves"
            }
        ),
    }
}

/// Figure 15: on-board storage breakdown. The paper reports SatRoI 30 GB,
/// Kodan 255 GB, Earth+ 24 GB; we reproduce the ordering and the structure
/// (Earth+ trades a small reference cache for a much smaller capture
/// store) via the Appendix A model fed with fractions measured in a short
/// mission.
pub fn fig15() -> ExperimentResult {
    // Measure the strategies' downloaded fractions on a short mission.
    let dataset = restrict(earthplus_scene::rich_content(33, 256), &[0, 2, 4], None, 60);
    let sim = MissionSimulator::from_dataset(&dataset, SimulationConfig::for_dataset(&dataset, 33));
    let detector = shared_detector(&sim);
    let config = base_config(&dataset);
    let mut earthplus = EarthPlusStrategy::new(config, detector.clone(), dataset_targets(&dataset));
    let mut kodan = KodanStrategy::new(config);
    let mut satroi = SatRoiStrategy::new(config, detector);
    let report = sim.run(&mut [&mut earthplus, &mut kodan, &mut satroi]);

    let frac = |name: &str| metrics::tile_fraction_stats(report.records(name)).mean;
    let drop_rate = |name: &str| {
        let records = report.records(name);
        records.iter().filter(|r| r.dropped).count() as f64 / records.len().max(1) as f64
    };

    let model = StorageModel::doves();
    // Raw staging: captures held on board awaiting processing over a
    // two-contact window (~35 captures/contact); strategies that drop
    // heavily-cloudy captures before encoding stage proportionally fewer.
    let staging = 35.0 * 2.0;
    // Kodan has no change information to prioritize with: it stores the
    // full captured frames (cloud filtering happens during encode), so its
    // captured fraction is 1.0.
    let kodan_b = model.breakdown(1.0, staging, 0.0, false);
    let satroi_b = model.breakdown(
        frac("satroi"),
        staging * (1.0 - drop_rate("satroi")),
        40.0,
        false,
    );
    let earthplus_b = model.breakdown(
        frac("earth+"),
        staging * (1.0 - drop_rate("earth+")),
        0.0,
        true,
    );

    let gb = |b: u64| b as f64 / 1e9;
    let rows = vec![
        vec![
            "kodan".into(),
            fmt(gb(kodan_b.captured_bytes), 1),
            fmt(gb(kodan_b.reference_bytes), 2),
            fmt(gb(kodan_b.total()), 1),
        ],
        vec![
            "satroi".into(),
            fmt(gb(satroi_b.captured_bytes), 1),
            fmt(gb(satroi_b.reference_bytes), 2),
            fmt(gb(satroi_b.total()), 1),
        ],
        vec![
            "earth+".into(),
            fmt(gb(earthplus_b.captured_bytes), 1),
            fmt(gb(earthplus_b.reference_bytes), 2),
            fmt(gb(earthplus_b.total()), 1),
        ],
    ];
    ExperimentResult {
        id: "fig15",
        title: "On-board storage breakdown (paper Fig. 15)",
        header: vec![
            "strategy".into(),
            "captured_GB".into(),
            "reference_GB".into(),
            "total_GB".into(),
        ],
        rows,
        summary: format!(
            "ordering Earth+ ({:.0} GB) < SatRoI ({:.0} GB) < Kodan ({:.0} GB) as in the paper \
             (24/30/255 GB); absolute values depend on the staging model (StorageModel::breakdown)",
            gb(earthplus_b.total()),
            gb(satroi_b.total()),
            gb(kodan_b.total())
        ),
    }
}

/// Figure 16: on-board runtime breakdown per capture. The paper: all
/// strategies spend ~0.65 s encoding; Kodan's accurate cloud detector is
/// ≈3× the cheap one; Earth+'s downsampled change detection beats
/// SatRoI's full-resolution one.
pub fn fig16() -> ExperimentResult {
    let mut dataset = earthplus_scene::large_constellation(35, 512);
    dataset.duration_days = 40;
    dataset.capture_cloud_filter = Some(0.5);
    let sim = MissionSimulator::from_dataset(&dataset, SimulationConfig::for_dataset(&dataset, 35));
    let detector = shared_detector(&sim);
    let config = base_config(&dataset);
    let mut earthplus = EarthPlusStrategy::new(config, detector.clone(), dataset_targets(&dataset));
    let mut kodan = KodanStrategy::new(config);
    let mut satroi = SatRoiStrategy::new(config, detector);
    let report = sim.run(&mut [&mut earthplus, &mut kodan, &mut satroi]);

    let mut rows = Vec::new();
    let mut timings = HashMap::new();
    for name in ["earth+", "satroi", "kodan"] {
        let t = metrics::mean_timings(report.records(name));
        timings.insert(name, t);
        rows.push(vec![
            name.into(),
            fmt(t.cloud_s * 1e3, 2),
            fmt(t.change_s * 1e3, 2),
            fmt(t.encode_s * 1e3, 2),
            fmt(t.total_s() * 1e3, 2),
        ]);
    }
    let cheap = timings["earth+"].cloud_s;
    let expensive = timings["kodan"].cloud_s;
    let ep_change = timings["earth+"].change_s;
    let sr_change = timings["satroi"].change_s;
    ExperimentResult {
        id: "fig16",
        title: "On-board runtime breakdown per capture (paper Fig. 16)",
        header: vec![
            "strategy".into(),
            "cloud_ms".into(),
            "change_ms".into(),
            "encode_ms".into(),
            "total_ms".into(),
        ],
        rows,
        summary: format!(
            "accurate cloud detection {:.1}x the cheap one (paper ~3.2x); Earth+'s change \
             detection {:.1}x faster than SatRoI's full-resolution pass (paper: faster)",
            expensive / cheap.max(1e-9),
            sr_change / ep_change.max(1e-9)
        ),
    }
}
