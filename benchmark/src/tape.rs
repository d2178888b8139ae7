//! The mission input tape: every contact pass and capture of a mission,
//! rendered once in set-up and replayed from memory.
//!
//! The event order mirrors [`earthplus::MissionSimulator::run`] — visits
//! gathered per location and stably sorted by day, the dataset cloud
//! filter, per-satellite contact cursors, one day-sorted pass before each
//! admitted visit — so replaying the tape through a strategy yields the
//! simulator's record stream (`tests/tape_fidelity.rs` holds the two
//! together).
//!
//! `--seed` does not pick the scenario. Scenes, orbits, contacts and the
//! weather come from a seed fixed per workload, so the share of captures
//! dropped on board and the number of changed tiles — which between
//! freely seeded scenarios vary by tens of percent at a tape length that
//! fits a run's set-up budget — stay comparable from run to run. The seed
//! draws what is left to chance about one scenario: how each location is
//! oriented under the sensor (one of the eight symmetries of the square,
//! the same for every capture of a location) and the sensor noise of
//! every sample ([`Perturbation`]). Without a perturbation the tape is
//! exactly the simulator's.

use crate::stats::Fnv;
use earthplus_cloud::{train_onboard_detector, OnboardCloudDetector, TrainingConfig};
use earthplus_ground::ContactWindow;
use earthplus_orbit::{Constellation, ContactSchedule, LinkModel, SatelliteId};
use earthplus_raster::{Band, LocationId, MultiBandImage, Raster};
use earthplus_scene::{Capture, DatasetConfig, LocationScene, SensorModel};
use std::collections::HashMap;
use std::time::Instant;

/// What `--seed` changes about rendered imagery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Perturbation(pub u64);

impl Perturbation {
    /// The symmetry of the square (bit 0: mirror x, bit 1: mirror y,
    /// bit 2: transpose) every image of `subject` is presented in. Tile
    /// statistics, cloud cover and changed-tile counts are invariant under
    /// it; the pixel order the codec and the detectors traverse is not.
    fn orientation(self, subject: u64) -> u8 {
        (mix(self.0 ^ subject.wrapping_mul(0xA24B_AED4_963E_E407)) & 7) as u8
    }

    /// `raster` in `subject`'s orientation.
    fn orient(self, raster: &Raster, subject: u64) -> Raster {
        let (w, h) = raster.dimensions();
        assert_eq!(w, h, "orientations are symmetries of a square image");
        let o = self.orientation(subject);
        Raster::from_fn(w, h, |x, y| {
            let (tx, ty) = if o & 4 != 0 { (y, x) } else { (x, y) };
            let sx = if o & 1 != 0 { w - 1 - tx } else { tx };
            let sy = if o & 2 != 0 { h - 1 - ty } else { ty };
            raster.get(sx, sy)
        })
    }

    /// `raster` oriented for `subject` with this seed's sensor noise:
    /// zero-mean, the scene model's own sigma, clamped and requantised to
    /// the sensor's 12 bits. `sample` separates images of one subject.
    pub fn observe(self, raster: &Raster, subject: u64, sample: u64) -> Raster {
        let sensor = SensorModel::standard();
        let levels = ((1u64 << sensor.bit_depth) - 1) as f32;
        let mut out = self.orient(raster, subject);
        let mut state =
            mix(self.0 ^ subject.rotate_left(17) ^ sample.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for v in out.as_mut_slice() {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let bits = mix(state);
            // Sum of four uniform 16-bit draws: near-normal, variance 1/3.
            let sum = (0..4)
                .map(|i| ((bits >> (16 * i)) & 0xFFFF) as f32)
                .sum::<f32>();
            let normal = (sum / 65536.0 - 2.0) * 1.732_050_8;
            *v = ((*v + sensor.noise_sigma * normal).clamp(0.0, 1.0) * levels).round() / levels;
        }
        out
    }

    /// A capture as this seed's sensor saw it.
    pub fn capture(self, capture: &Capture, location: LocationId) -> Capture {
        let subject = location.0 as u64;
        let (w, h) = capture.image.dimensions();
        let mut image = MultiBandImage::new(w, h);
        for (tag, (band, raster)) in capture.image.iter().enumerate() {
            let sample = (capture.day.to_bits() << 8) ^ tag as u64;
            image
                .push_band(band, self.observe(raster, subject, sample))
                .expect("bands are unique and equally sized");
        }
        Capture {
            day: capture.day,
            image,
            cloud_alpha: self.orient(&capture.cloud_alpha, subject),
            cloud_fraction: capture.cloud_fraction,
        }
    }
}

/// The splitmix64 finaliser: every seeded draw of the benchmark goes
/// through it.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What to render.
#[derive(Debug, Clone)]
pub struct MissionSpec {
    /// The scenes.
    pub dataset: DatasetConfig,
    /// What `--seed` draws on top of the scenario; `None` replays the
    /// scenario exactly as the simulator would.
    pub perturbation: Option<Perturbation>,
    /// Seed of orbits and ground contacts (the simulator's
    /// `SimulationConfig::seed`).
    pub scenario_seed: u64,
    /// First mission day on the tape.
    pub from_day: u32,
    /// Days on the tape.
    pub days: u32,
    /// Profiling days the on-board cloud detector is trained on.
    pub train_days: u32,
}

/// One capture offered to the strategy.
#[derive(Debug)]
pub struct CaptureEvent {
    /// Mission day.
    pub day: f64,
    /// Capturing satellite.
    pub satellite: SatelliteId,
    /// Observed location.
    pub location: LocationId,
    /// The rendered observation.
    pub capture: Capture,
}

/// One tape event, in mission order.
#[derive(Debug)]
pub enum Event {
    /// Every contact window since the previous planning round.
    Pass(Vec<ContactWindow>),
    /// One capture.
    Capture(Box<CaptureEvent>),
}

/// Seconds of generator work, by the crate that did it.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Scene synthesis and capture rendering (`earthplus-scene`).
    pub render_s: f64,
    /// Visit and contact scheduling (`earthplus-orbit`).
    pub schedule_s: f64,
    /// Detector training (`earthplus-cloud`).
    pub train_s: f64,
}

/// A rendered mission.
#[derive(Debug)]
pub struct MissionTape {
    /// Events in replay order.
    pub events: Vec<Event>,
    /// The trained on-board cloud detector every replay starts from.
    pub detector: OnboardCloudDetector,
    /// Every (location, band) the uplink serves.
    pub targets: Vec<(LocationId, Band)>,
    /// Pixels of one band of one capture.
    pub pixels_per_band: usize,
    /// Captures on the tape.
    pub captures: usize,
    /// Contact windows on the tape.
    pub windows: usize,
    /// Visits the dataset's cloud filter removed.
    pub filtered_visits: usize,
    /// Where set-up time went.
    pub setup: SetupTimes,
}

/// Renders the tape for `spec`.
pub fn build(spec: &MissionSpec) -> MissionTape {
    let mut setup = SetupTimes::default();

    let t = Instant::now();
    let scenes: Vec<LocationScene> = spec
        .dataset
        .locations
        .iter()
        .map(|c| LocationScene::new(c.clone()))
        .collect();
    setup.render_s += t.elapsed().as_secs_f64();

    let t = Instant::now();
    let detector = train_onboard_detector(
        &scenes[0],
        &TrainingConfig {
            days: spec.train_days,
            ..TrainingConfig::default()
        },
    );
    setup.train_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let constellation = Constellation::doves(spec.dataset.satellite_count, spec.scenario_seed);
    let contacts = ContactSchedule::new(spec.scenario_seed ^ 0xC0);
    let uplink = LinkModel::doves_uplink();
    let from = spec.from_day as i64;
    let to = from + spec.days as i64;
    let mut visits = Vec::new();
    for scene in &scenes {
        visits.extend(constellation.visits(scene.config().location, from, to));
    }
    visits.sort_by(|a, b| a.day.partial_cmp(&b.day).expect("days are finite"));
    let scene_of: HashMap<LocationId, usize> = scenes
        .iter()
        .enumerate()
        .map(|(i, s)| (s.config().location, i))
        .collect();
    setup.schedule_s += t.elapsed().as_secs_f64();

    let mut events = Vec::new();
    let mut last_contact_day: HashMap<SatelliteId, f64> = HashMap::new();
    let (mut captures, mut windows, mut filtered_visits) = (0, 0, 0);
    for visit in visits {
        let index = scene_of[&visit.location];
        let coverage = scenes[index].cloud_coverage(visit.day);
        if spec
            .dataset
            .capture_cloud_filter
            .is_some_and(|filter| coverage > filter)
        {
            filtered_visits += 1;
            continue;
        }

        let t = Instant::now();
        let mut pass: Vec<ContactWindow> = Vec::new();
        for satellite in constellation.satellites() {
            let start = last_contact_day
                .get(&satellite.id)
                .copied()
                .unwrap_or(from as f64);
            for contact in contacts.contacts(satellite.id, start, visit.day) {
                pass.push(ContactWindow {
                    satellite: satellite.id,
                    day: contact.day,
                    budget_bytes: uplink.bytes_per_contact(contact.index),
                });
            }
            last_contact_day.insert(satellite.id, visit.day);
        }
        pass.sort_by(|a, b| a.day.partial_cmp(&b.day).expect("days are finite"));
        setup.schedule_s += t.elapsed().as_secs_f64();
        if !pass.is_empty() {
            windows += pass.len();
            events.push(Event::Pass(pass));
        }

        let t = Instant::now();
        let mut capture = scenes[index].capture(visit.day);
        if let Some(perturbation) = spec.perturbation {
            capture = perturbation.capture(&capture, visit.location);
        }
        setup.render_s += t.elapsed().as_secs_f64();
        captures += 1;
        events.push(Event::Capture(Box::new(CaptureEvent {
            day: visit.day,
            satellite: visit.satellite,
            location: visit.location,
            capture,
        })));
    }

    let targets = spec
        .dataset
        .locations
        .iter()
        .flat_map(|l| l.bands.iter().map(|&b| (l.location, b)))
        .collect();
    MissionTape {
        events,
        detector,
        targets,
        pixels_per_band: spec.dataset.pixels_per_capture(),
        captures,
        windows,
        filtered_visits,
        setup,
    }
}

/// Identity of a tape: every event's schedule fields and every rendered
/// sample, so two tapes hash alike only if a replay cannot tell them
/// apart.
pub fn hash(tape: &MissionTape) -> u64 {
    let mut h = Fnv::default();
    for event in &tape.events {
        match event {
            Event::Pass(windows) => {
                h.u64(windows.len() as u64);
                for w in windows {
                    h.u64(w.satellite.0 as u64);
                    h.f64(w.day);
                    h.u64(w.budget_bytes);
                }
            }
            Event::Capture(c) => {
                h.f64(c.day);
                h.u64(c.satellite.0 as u64);
                h.u64(c.location.0 as u64);
                h.f64(c.capture.cloud_fraction);
                for (_, band) in c.capture.image.iter() {
                    h.f32s(band.as_slice());
                }
            }
        }
    }
    h.0
}
