//! The ground-segment configuration every workload with a ground segment
//! runs on, and the scratch directories its stores live in.

use crate::metrics::Tally;
use crate::spans::{timed, SpanLog};
use crate::stats::median;
use crate::workload::{hist_count, hist_s, hist_sum, ratio, Layers};
use earthplus_ground::{
    GroundService, GroundServiceConfig, ReferenceBackendConfig, ShipQueueConfig, StationSetConfig,
};
use earthplus_raster::{Band, LocationId};
use earthplus_refstore::RefLogConfig;
use earthplus_telemetry::{names, FlightRecorder, MetricsRegistry, Snapshot};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Ground stations in the replicated backend.
pub const STATIONS: usize = 2;
/// Extra copies per shard.
pub const REPLICAS: usize = 1;

/// Ingest worker threads: the machine's parallelism, capped at four so a
/// large host does not turn the workload into a different one.
pub fn ingest_threads() -> usize {
    nproc().min(4)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The directory benchmark outputs and store directories live under:
/// `out/` inside the benchmark package, so a run reads and writes only
/// inside its checkout.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A fresh store directory removed on drop — on success, on a failed
/// check, and while unwinding from a panic.
#[derive(Debug)]
pub struct StoreDir(PathBuf);

impl StoreDir {
    /// Creates an empty, uniquely named directory under [`out_dir`].
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created: nothing can be measured
    /// without a place for the store.
    pub fn fresh(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = out_dir().join("stores").join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("store directory must be creatable");
        StoreDir(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Bytes of every regular file beneath the directory.
    pub fn disk_bytes(&self) -> u64 {
        fn walk(dir: &Path) -> u64 {
            let Ok(entries) = std::fs::read_dir(dir) else {
                return 0;
            };
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => walk(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        }
        walk(&self.0)
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        // Errors are ignored: Drop must not panic, and a leftover
        // directory is ignored by git and removed by the next run.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The observability a traced replay wires through the ground config.
#[derive(Debug, Default)]
pub struct Observability {
    /// The metric registry the crates' existing sinks record into.
    pub registry: MetricsRegistry,
    /// The flight recorder behind the Chrome trace.
    pub recorder: FlightRecorder,
}

/// The backend ROADMAP names: `Replicated`, two stations, one replica,
/// fsync on every append, pipelined shipping with background workers.
/// `log` carries any further storage-engine tuning a workload needs.
pub fn ground_config(
    dir: &Path,
    targets: Vec<(LocationId, Band)>,
    log: RefLogConfig,
    observe: Option<&Observability>,
) -> GroundServiceConfig {
    let mut config = GroundServiceConfig {
        ingest_threads: ingest_threads(),
        ..GroundServiceConfig::default()
    }
    .with_targets(targets)
    .with_backend(ReferenceBackendConfig::Replicated {
        dir: dir.to_path_buf(),
        stations: StationSetConfig {
            stations: STATIONS,
            replicas: REPLICAS,
            log: RefLogConfig {
                fsync_appends: true,
                ..log
            },
            queue: ShipQueueConfig {
                pipelined: true,
                workers: true,
                ..ShipQueueConfig::default()
            },
            ..StationSetConfig::default()
        },
    });
    if let Some(o) = observe {
        o.recorder.register_metrics(&o.registry);
        config = config
            .with_telemetry(o.registry.sink())
            .with_tracing(o.recorder.sink());
    }
    config
}

/// Opens a replicated store on a fresh directory and drops it: the first
/// store open a ground segment pays before it can take traffic, which
/// belongs to set-up, not to any replay.
pub fn first_store_open(targets: Vec<(LocationId, Band)>, log: RefLogConfig) {
    let dir = StoreDir::fresh("setup");
    drop(GroundService::new(ground_config(
        dir.path(),
        targets,
        log,
        None,
    )));
}

/// One line describing the backend, for the environment block.
pub fn backend_description() -> String {
    let q = ShipQueueConfig::default();
    format!(
        "Replicated stations={STATIONS} replicas={REPLICAS} fsync_appends=true \
         ship=pipelined workers=true queue_depth={} inflight_window={} ingest_threads={}",
        q.queue_depth,
        q.inflight_window,
        ingest_threads()
    )
}

/// What a ground service held when its replay ended: the facts a
/// restarted ground segment must reproduce from disk.
#[derive(Debug)]
pub struct Held {
    /// Every key with the capture day of its freshest reference.
    pub fresh: Vec<((LocationId, Band), f64)>,
}

impl Held {
    /// Reads the store of a live service.
    pub fn of(service: &GroundService) -> Self {
        let store = service.store();
        let mut fresh: Vec<_> = store
            .keys()
            .into_iter()
            .filter_map(|(l, b)| store.fresh_day(l, b).map(|day| ((l, b), day)))
            .collect();
        fresh.sort_by_key(|&(key, _)| key);
        Held { fresh }
    }
}

/// The outcome of restarting the ground segment on a replay's directory.
#[derive(Debug, Default)]
pub struct Reopened {
    /// Seconds each `GroundService::try_new` took.
    pub open_s: Vec<f64>,
    /// Live records recovery replayed.
    pub replay_records: u64,
    /// Keys whose freshest day after the restart differs from `held`, or
    /// which are gone, plus any the restart invented.
    pub references_lost: u64,
}

/// Reopens the store under `dir` `times` times through
/// `GroundService::try_new` and compares what it recovered with `held`.
/// A failed open counts every held key as lost.
fn reopen(
    dir: &Path,
    log: RefLogConfig,
    held: &Held,
    times: usize,
    spans: &mut SpanLog,
) -> Reopened {
    let mut out = Reopened::default();
    for i in 0..times {
        let config = ground_config(dir, Vec::new(), log, None);
        let (service, s) = timed(spans, "refstore.replay", i as u64, || {
            GroundService::try_new(config)
        });
        out.open_s.push(s);
        let Ok(service) = service else {
            out.references_lost = held.fresh.len() as u64;
            return out;
        };
        if i == 0 {
            let store = service.store();
            out.replay_records = service.recovery_report().map_or(0, |r| r.live_records);
            out.references_lost = held
                .fresh
                .iter()
                .filter(|&&((l, b), day)| store.fresh_day(l, b) != Some(day))
                .count() as u64
                + (store.len() as u64).saturating_sub(held.fresh.len() as u64);
        }
    }
    out
}

/// Restarts the ground segment on a finished replay's directory (five
/// times in a traced replay, for `refstore.replay_s`; once otherwise),
/// counts any difference from `held` as a failed operation, and fills
/// the replay rows of a traced replay.
pub fn check_restart(
    dir: &Path,
    log: RefLogConfig,
    held: &Held,
    spans: &mut SpanLog,
    tally: &mut Tally,
    layers: &mut Layers,
) {
    let traced = spans.is_enabled();
    let reopened = reopen(dir, log, held, if traced { 5 } else { 1 }, spans);
    tally.attempted += 1;
    tally.outputs.u64(held.fresh.len() as u64);
    if reopened.references_lost > 0 {
        tally.fail(|| {
            format!(
                "{} references differ after reopen",
                reopened.references_lost
            )
        });
    }
    if traced {
        layers.insert("refstore.replay_s", median(&reopened.open_s));
        layers.insert("refstore.replay_records", reopened.replay_records as f64);
    }
}

/// The ground and refstore per-layer values every workload with a ground
/// service reads the same way: public stats structs, the registry the
/// traced replay wired in, and a walk of the store directory.
pub fn ground_layers(
    layers: &mut Layers,
    service: &GroundService,
    snapshot: &Snapshot,
    dir: &StoreDir,
) {
    let stats = service.stats();
    let sent = stats.deltas_sent as f64;
    let skipped = stats.deltas_skipped as f64;
    layers.insert("ground.deltas_sent", sent);
    layers.insert("ground.deltas_skipped", skipped);
    layers.insert("ground.delta_fit_ratio", ratio(sent, sent + skipped));
    layers.insert("ground.ingest_accepted", stats.ingest_accepted as f64);
    layers.insert("ground.ingest_rejected", stats.ingest_rejected as f64);
    layers.insert(
        "ground.serve_calls",
        (stats.cache.hits + stats.cache.misses) as f64,
    );
    layers.insert("ground.cache_hit_rate", stats.cache.hit_rate());

    // `refstore.append_ns` spans single committed appends; a group commit
    // (`append_batch`) has no span of its own, only its record count.
    let append_s = hist_s(snapshot, names::REFSTORE_APPEND_NS);
    let appends = hist_count(snapshot, names::REFSTORE_APPEND_NS)
        + hist_sum(snapshot, names::REFSTORE_BATCH_RECORDS);
    layers.insert("refstore.append_s", append_s);
    layers.insert("refstore.appends", appends);
    layers.insert(
        "refstore.compaction_s",
        hist_s(snapshot, names::REFSTORE_COMPACTION_STEP_NS),
    );
    if let Some(stations) = service.stations() {
        let s = stations.stats();
        layers.insert("ground.ship_bytes", s.ship_bytes as f64);
        layers.insert("ground.ship_segments", s.ship_segments as f64);
        layers.insert("ground.ship_retries", s.ship_retries as f64);
        layers.insert("ground.backpressure_waits", s.ship_backpressure as f64);
        layers.insert("refstore.fsyncs", s.store.fsyncs_issued as f64);
        layers.insert(
            "refstore.fsyncs_per_append",
            ratio(s.store.fsyncs_issued as f64, appends),
        );
        layers.insert("refstore.compaction_steps", s.store.compaction_steps as f64);
        layers.insert("refstore.live_bytes", s.store.live_bytes as f64);
        layers.insert("refstore.dead_bytes", s.store.dead_bytes as f64);
        let disk = dir.disk_bytes() as f64;
        layers.insert("refstore.disk_bytes", disk);
        layers.insert("refstore.space_amp", ratio(disk, s.store.live_bytes as f64));
    }
}
