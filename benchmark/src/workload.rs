//! What every workload offers the runner.

use crate::metrics::Tally;
use crate::spans::SpanLog;
pub use crate::stats::ratio;
use crate::tape::SetupTimes;
use earthplus_telemetry::{Snapshot, TraceLog};
use std::collections::BTreeMap;

/// Scenario seed shared by all workloads: scenes, orbits, contact windows,
/// weather and the ground workload's key schedule derive from it, never
/// from `--seed` (see the `tape` module docs for why).
pub const SCENARIO_SEED: u64 = 11;

/// Round-trip PSNR floor (dB) at smoke size, where small frames
/// reconstruct worse and the check only has to catch a broken round trip.
pub const SMOKE_PSNR_FLOOR_DB: f64 = 20.0;

/// Per-layer values of one traced replay, by `PER_LAYER` name.
pub type Layers = BTreeMap<&'static str, f64>;

/// One timed replay.
#[derive(Debug)]
pub struct Rep {
    /// Wall seconds of the replay loop (the throughput denominator).
    pub wall_s: f64,
    /// End-to-end observations.
    pub tally: Tally,
    /// Per-layer values (empty for an untraced replay).
    pub layers: Layers,
    /// The flight recorder's log (traced replays only).
    pub trace: Option<TraceLog>,
}

/// A workload: inputs rendered once, replayed on fresh state each time.
pub trait Workload {
    /// Where set-up time went.
    fn setup_times(&self) -> SetupTimes;

    /// Hash of the rendered inputs: equal seeds give equal hashes.
    fn identity(&self) -> u64;

    /// Untimed work that lets lazy initialisation finish before the first
    /// timed replay.
    fn warm_up(&self);

    /// Replays the inputs on fresh state. With `spans` enabled the replay
    /// also wires a metric registry and a flight recorder through the
    /// system and fills [`Rep::layers`].
    fn replay(&self, spans: &mut SpanLog) -> Rep;
}

/// Seconds a registry histogram of nanoseconds accumulated.
pub fn hist_s(snapshot: &Snapshot, name: &str) -> f64 {
    snapshot.histogram(name).map_or(0.0, |h| h.sum as f64 / 1e9)
}

/// Values a registry histogram recorded.
pub fn hist_count(snapshot: &Snapshot, name: &str) -> f64 {
    snapshot.histogram(name).map_or(0.0, |h| h.count as f64)
}

/// Sum of the values a registry histogram recorded.
pub fn hist_sum(snapshot: &Snapshot, name: &str) -> f64 {
    snapshot.histogram(name).map_or(0.0, |h| h.sum as f64)
}

/// The pass-planning rows every workload fills the same way.
pub fn pass_layers(layers: &mut Layers, tally: &Tally) {
    layers.insert(
        "ground.plan_pass_s",
        tally.pass_ms.iter().sum::<f64>() / 1e3,
    );
    layers.insert("ground.plan_pass_calls", tally.pass_ms.len() as f64);
    layers.insert("ground.windows_planned", tally.contacts as f64);
}
