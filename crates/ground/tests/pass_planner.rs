//! Store traffic and backend independence of the pass planner, over
//! seeded random constellations.
//!
//! One `plan_pass` may probe each target once and read each stale key
//! once — a `get` on the durable backend is a positioned disk read, a CRC
//! check and a payload decode, and the same reference serves every
//! satellite that needs it. The plan itself (reports and post-pass cache
//! contents) must not depend on which backend held the references.

use earthplus_ground::{
    ConstellationScheduler, ContactWindow, EvictingReferenceCache, IngestReport, RefLogConfig,
    ReferenceBackend, ReferenceImage, ReplicatedReferenceStore, ShardedReferenceStore,
    StationSetConfig, UplinkReport,
};
use earthplus_orbit::SatelliteId;
use earthplus_raster::{Band, LocationId, PlanetBand, Raster};
use earthplus_telemetry::{TelemetrySink, TraceSink};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::Mutex;

type Key = (LocationId, Band);

const THETA: f32 = 0.01;
const SHARDS: usize = 4;

/// splitmix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Counts the planner's store traffic; everything else passes through.
#[derive(Debug)]
struct Counting<B> {
    inner: B,
    probes: Mutex<usize>,
    reads: Mutex<HashMap<Key, usize>>,
}

impl<B> Counting<B> {
    fn new(inner: B) -> Self {
        Counting {
            inner,
            probes: Mutex::new(0),
            reads: Mutex::new(HashMap::new()),
        }
    }

    /// `(fresh_day calls, get calls per key)` since the last take.
    fn take(&self) -> (usize, HashMap<Key, usize>) {
        (
            std::mem::take(&mut *self.probes.lock().unwrap()),
            std::mem::take(&mut *self.reads.lock().unwrap()),
        )
    }
}

impl<B: ReferenceBackend> ReferenceBackend for Counting<B> {
    fn offer(&self, reference: ReferenceImage) -> bool {
        self.inner.offer(reference)
    }

    fn get(&self, location: LocationId, band: Band) -> Option<ReferenceImage> {
        *self
            .reads
            .lock()
            .unwrap()
            .entry((location, band))
            .or_default() += 1;
        self.inner.get(location, band)
    }

    fn fresh_day(&self, location: LocationId, band: Band) -> Option<f64> {
        *self.probes.lock().unwrap() += 1;
        self.inner.fresh_day(location, band)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn size_bytes(&self) -> u64 {
        self.inner.size_bytes()
    }

    fn keys(&self) -> Vec<Key> {
        self.inner.keys()
    }

    fn ingest_batch(&self, references: Vec<ReferenceImage>, threads: usize) -> IngestReport {
        self.inner.ingest_batch(references, threads)
    }

    fn sync(&self) {
        self.inner.sync()
    }
}

/// One planning round: what the ground ingests, then the pass.
struct Round {
    offers: Vec<ReferenceImage>,
    contacts: Vec<ContactWindow>,
}

struct Scenario {
    targets: Vec<Key>,
    capacity: Option<u64>,
    rounds: Vec<Round>,
}

fn reference(key: Key, day: f64, side: usize, pixels: Vec<f32>) -> ReferenceImage {
    ReferenceImage {
        location: key.0,
        band: key.1,
        captured_day: day,
        lowres: Raster::from_vec(side, side, pixels).unwrap(),
        downsample: 48 / side,
        full_width: 48,
        full_height: 48,
    }
}

fn scenario(seed: u64) -> Scenario {
    let mut rng = Rng(seed);
    let bands = [PlanetBand::Red, PlanetBand::Green, PlanetBand::NearInfrared];
    let locations = 3 + rng.below(6) as u32;
    let band_count = 1 + rng.below(3) as usize;
    let mut targets: Vec<Key> = (0..locations)
        .flat_map(|l| {
            bands[..band_count]
                .iter()
                .map(move |&b| (LocationId(l), Band::Planet(b)))
        })
        .collect();
    // One target the store never hears about, and an unsorted list.
    targets.push((LocationId(locations), Band::Planet(PlanetBand::Red)));
    targets.reverse();
    let satellites = 1 + rng.below(16) as u32;
    let one = reference(targets[0], 0.0, 6, vec![0.0; 36]).size_bytes();
    // Two seeds in three bound the caches tightly enough to evict mid-pass.
    let capacity = (!seed.is_multiple_of(3)).then(|| one * (2 + rng.below(4)));
    // The key whose resolution is reconfigured from the third round on.
    let reconfigured = targets[1 + rng.below(targets.len() as u64 - 1) as usize];

    let mut content: HashMap<Key, Vec<f32>> = HashMap::new();
    let mut rounds = Vec::new();
    for round in 0..5u64 {
        let day = 10.0 + round as f64;
        let mut offers = Vec::new();
        for &key in &targets[1..] {
            // First round fills the store; later ones refresh about half.
            if round > 0 && rng.below(2) == 0 {
                continue;
            }
            let side = if key == reconfigured && round >= 2 {
                3
            } else {
                6
            };
            let pixels = content
                .entry(key)
                .or_insert_with(|| (0..36).map(|i| (i % 7) as f32 / 10.0).collect());
            pixels.resize(side * side, 0.5);
            // One refresh in four changes nothing on the ground.
            if rng.below(4) != 0 {
                for _ in 0..1 + rng.below(8) {
                    let i = rng.below(pixels.len() as u64) as usize;
                    pixels[i] = rng.below(100) as f32 / 100.0;
                }
            }
            let stamp = day + rng.below(4) as f64 / 8.0;
            offers.push(reference(key, stamp, side, pixels.clone()));
        }
        let mut contacts = Vec::new();
        for satellite in 0..satellites {
            // A satellite may sit a round out, or get up to three windows.
            for window in 0..rng.below(4) {
                contacts.push(ContactWindow {
                    satellite: SatelliteId(satellite),
                    day: day + 0.5 + (3 - window) as f64 / 10.0,
                    // From an outage to room for a few installs.
                    budget_bytes: rng.below(4) * (one + 16) + rng.below(40),
                });
            }
        }
        rounds.push(Round { offers, contacts });
    }
    Scenario {
        targets,
        capacity,
        rounds,
    }
}

/// What one backend produced for a scenario.
#[derive(Debug, PartialEq)]
struct Outcome {
    reports: Vec<Vec<UplinkReport>>,
    caches: Vec<(SatelliteId, Vec<ReferenceImage>)>,
    evictions: u64,
}

fn run(scenario: &Scenario, store: &Counting<impl ReferenceBackend>, label: &str) -> Outcome {
    let scheduler = ConstellationScheduler::new(THETA);
    let mut caches: HashMap<SatelliteId, EvictingReferenceCache> = HashMap::new();
    let mut reports = Vec::new();
    for (r, round) in scenario.rounds.iter().enumerate() {
        for offer in &round.offers {
            store.offer(offer.clone());
        }
        // Stale before the pass: fresher in the store than on some
        // satellite that has a window.
        let in_contact: HashSet<SatelliteId> = round.contacts.iter().map(|c| c.satellite).collect();
        let stale: HashSet<Key> = scenario
            .targets
            .iter()
            .copied()
            .filter(|&(l, b)| {
                store.inner.fresh_day(l, b).is_some_and(|pool_day| {
                    in_contact.iter().any(|s| {
                        caches
                            .get(s)
                            .and_then(|c| c.peek(l, b))
                            .is_none_or(|c| c.captured_day < pool_day)
                    })
                })
            })
            .collect();
        store.take();
        reports.push(scheduler.plan_pass(
            store,
            &mut caches,
            &scenario.targets,
            &round.contacts,
            || EvictingReferenceCache::new(scenario.capacity),
        ));
        let (probes, reads) = store.take();
        assert!(
            probes <= scenario.targets.len(),
            "{label} round {r}: {probes} fresh_day probes for {} targets",
            scenario.targets.len()
        );
        for (key, count) in &reads {
            assert_eq!(*count, 1, "{label} round {r}: {key:?} read {count} times");
            assert!(stale.contains(key), "{label} round {r}: fresh {key:?} read");
        }
        assert_eq!(
            reads.len(),
            stale.len(),
            "{label} round {r}: stale key unread"
        );
    }
    let evictions = caches.values().map(|c| c.stats().evictions).sum();
    let mut caches: Vec<(SatelliteId, Vec<ReferenceImage>)> = caches
        .iter()
        .map(|(&s, cache)| (s, cache.iter().cloned().collect()))
        .collect();
    caches.sort_by_key(|(s, _)| *s);
    Outcome {
        reports,
        caches,
        evictions,
    }
}

fn store_dir(tag: &str, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "earthplus-pass-planner-{tag}-{seed}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// [`run`] on a fresh durable store with the `stations` topology.
fn durable_run(scenario: &Scenario, label: &str, seed: u64, stations: StationSetConfig) -> Outcome {
    let dir = store_dir(label, seed);
    let (store, _) = ReplicatedReferenceStore::open(
        &dir,
        SHARDS,
        stations,
        None,
        &TelemetrySink::default(),
        &TraceSink::default(),
    )
    .expect("durable store opens");
    let outcome = run(scenario, &Counting::new(store), label);
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

#[test]
fn one_probe_per_target_one_read_per_stale_key_on_every_backend() {
    let mut evictions = 0;
    let mut skipped = 0;
    for seed in 0..24u64 {
        let scenario = scenario(seed);

        let memory = Counting::new(ShardedReferenceStore::new(SHARDS));
        let in_memory = run(&scenario, &memory, "in-memory");

        let single = StationSetConfig::single(RefLogConfig::default());
        let persistent = durable_run(&scenario, "persistent", seed, single);
        let replicated = durable_run(&scenario, "replicated", seed, StationSetConfig::default());

        assert_eq!(
            in_memory, persistent,
            "seed {seed}: persistent plan differs"
        );
        assert_eq!(
            in_memory, replicated,
            "seed {seed}: replicated plan differs"
        );

        // The scenarios must reach what they were written to reach.
        skipped += in_memory
            .reports
            .iter()
            .flatten()
            .map(|r| r.deltas_skipped)
            .sum::<usize>();
        evictions += in_memory.evictions;
    }
    assert!(skipped > 0, "no scenario ran a budget dry");
    assert!(evictions > 0, "no scenario evicted from a bounded cache");
}
