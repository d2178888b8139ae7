//! One run of one workload: set-ups, warm-up, a measuring window of whole
//! replays on fresh state, the output checks, and the reduction of what
//! the replays observed into the named metrics.

use crate::codec_stream::CodecStream;
use crate::ground_backfill::GroundBackfill;
use crate::metrics::{Reduce, END_TO_END, LEDGER_ROWS, PER_LAYER};
use crate::mission::{Kind, Mission};
use crate::spans::{timer_overhead_ns, SpanLog};
use crate::stats::{median, percentile, sorted, spread, supported_tail};
use crate::workload::{ratio, Layers, Rep, Workload};
use earthplus_telemetry::TraceLog;
use std::time::Instant;

/// Set-ups made per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Content seed.
    pub seed: u64,
    /// Seconds the measuring window lasts.
    pub seconds: f64,
    /// Also make traced replays and report the per-layer metrics.
    pub trace: bool,
    /// Tiny sizes, one set-up: a functional check, not a measurement.
    pub smoke: bool,
}

/// One end-to-end metric of a run.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// One value per replay (per set-up for `setup_s`).
    pub per_rep: Vec<f64>,
    /// Interquartile distance of `per_rep` over its median.
    pub spread: f64,
    /// How finely this run resolves `value`: `spread / sqrt(replays)`,
    /// the spread of a mean of that many replays.
    pub resolution: f64,
    /// Whether `resolution` exceeds the metric's bound: the run cannot
    /// tell a regression of the bound's size from its own noise.
    pub noisy: bool,
    /// Events behind a percentile, and raw samples pooled over replays.
    pub samples: Option<(usize, usize)>,
    /// The highest tail of the raw pooled samples with ten samples beyond
    /// it, as information.
    pub tail: Option<(&'static str, f64)>,
}

/// One ledger row.
#[derive(Debug, Clone)]
pub struct LedgerRow {
    /// `layer.metric`.
    pub name: &'static str,
    /// Seconds.
    pub seconds: f64,
    /// Share of the replay wall.
    pub share: f64,
}

/// Everything a run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Workload name.
    pub workload: String,
    /// Content seed.
    pub seed: u64,
    /// Hash of the rendered inputs.
    pub tape_hash: u64,
    /// Untraced replays in the window.
    pub reps: usize,
    /// Traced replays in the window.
    pub traced_reps: usize,
    /// Seconds the window actually lasted.
    pub window_s: f64,
    /// End-to-end metrics, from the untraced replays.
    pub end_to_end: Vec<Measured>,
    /// Per-layer metrics (every `PER_LAYER` name; zeros when untraced).
    pub per_layer: Vec<(&'static str, &'static str, f64)>,
    /// The ledger of the traced replays (empty when untraced).
    pub ledger: Vec<LedgerRow>,
    /// Operations attempted over all replays.
    pub attempted: u64,
    /// Operations failed over all replays.
    pub failed: u64,
    /// Why the run is not correct, if it is not.
    pub problems: Vec<String>,
    /// Lowest single reconstruction PSNR over all replays.
    pub psnr_min_db: f64,
    /// `Instant` pair cost.
    pub timer_overhead_ns: f64,
    /// Bench-side spans of the traced replays.
    pub spans: SpanLog,
    /// Flight-recorder log of the last traced replay.
    pub trace: Option<TraceLog>,
}

impl Outcome {
    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Renders the named workload's inputs.
///
/// # Errors
///
/// Returns a message for an unknown name.
pub fn build(name: &str, seed: u64, smoke: bool) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "mission_rich" => Box::new(Mission::build(Kind::Rich, seed, smoke)),
        "mission_constellation" => Box::new(Mission::build(Kind::Constellation, seed, smoke)),
        "ground_backfill" => Box::new(GroundBackfill::build(seed, smoke)),
        "codec_stream" => Box::new(CodecStream::build(seed, smoke)),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// Runs one workload.
///
/// # Errors
///
/// Returns a message for an unknown workload name.
pub fn run(options: &Options) -> Result<Outcome, String> {
    // Set-up, several times: one rendering is at the mercy of whatever
    // else the machine did in those seconds; the median of three is not.
    let mut setup_s = Vec::new();
    let mut workload = None;
    for _ in 0..if options.smoke { 1 } else { SETUPS } {
        drop(workload.take());
        let t = Instant::now();
        workload = Some(build(&options.workload, options.seed, options.smoke)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let workload = workload.expect("at least one set-up");
    let tape_hash = workload.identity();
    let timer_overhead = timer_overhead_ns();
    workload.warm_up();

    // The window: whole replays, alternating untraced and traced when
    // tracing is on so both see the same machine conditions.
    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut spans = SpanLog::enabled();
    let mut off = SpanLog::disabled();
    let (min_untraced, min_traced) = (2, if options.trace { 1 } else { 0 });
    let window = Instant::now();
    loop {
        let turn_traced = options.trace && untraced.len() > traced.len();
        let rep = workload.replay(if turn_traced { &mut spans } else { &mut off });
        if turn_traced {
            traced.push(rep);
        } else {
            untraced.push(rep);
        }
        let elapsed = window.elapsed().as_secs_f64();
        let per_rep = elapsed / (untraced.len() + traced.len()) as f64;
        let enough = untraced.len() >= min_untraced && traced.len() >= min_traced;
        // Stop once another replay would overshoot the window by more
        // than half of itself.
        if enough && elapsed + per_rep / 2.0 > options.seconds {
            break;
        }
    }
    let window_s = window.elapsed().as_secs_f64();

    let mut problems = Vec::new();
    let all = || untraced.iter().chain(&traced);
    let attempted = all().map(|r| r.tally.attempted).sum();
    let failed: u64 = all().map(|r| r.tally.failed).sum();
    if failed > 0 {
        let why: Vec<&str> = all()
            .flat_map(|r| r.tally.failures.iter().map(String::as_str))
            .take(4)
            .collect();
        problems.push(format!("{failed} operations failed: {}", why.join("; ")));
    }
    // The byte-identical-schedule contract: the same tape gives the same
    // bytes and the same report stream on every replay, traced or not.
    let exact = untraced[0].tally.exact();
    if let Some(i) = all().position(|r| r.tally.exact() != exact) {
        problems.push(format!(
            "replay {i} differs from replay 0 in (downlink bytes, uplink bytes, output hash, psnr bits)"
        ));
    }

    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            let (value, per_rep, samples, tail) = match m.reduce {
                Reduce::Setup => (median(&setup_s), setup_s.clone(), None, None),
                Reduce::RepMedian => {
                    let per_rep: Vec<f64> = untraced
                        .iter()
                        .map(|r| r.tally.rep_value(m.name, r.wall_s))
                        .collect();
                    (median(&per_rep), per_rep, None, None)
                }
                Reduce::Pooled(pool, q) => {
                    let per_rep = untraced
                        .iter()
                        .map(|r| percentile(&sorted(r.tally.pool(pool).to_vec()), q))
                        .collect();
                    let pooled = sorted(
                        untraced
                            .iter()
                            .flat_map(|r| r.tally.pool(pool).iter().copied())
                            .collect(),
                    );
                    // Replays issue the same events in the same order, so
                    // sample i of every replay times the same call. Each
                    // event's latency is its median over the replays —
                    // a stall that hits one replay of an event is the
                    // machine's, a cost every replay pays is the
                    // program's — and the percentile is taken across
                    // events.
                    let events = untraced[0].tally.pool(pool).len();
                    if untraced.iter().any(|r| r.tally.pool(pool).len() != events) {
                        problems.push(format!("replays disagree on the samples behind {}", m.name));
                    }
                    let typical = sorted(
                        (0..events)
                            .map(|i| {
                                let across: Vec<f64> = untraced
                                    .iter()
                                    .filter_map(|r| r.tally.pool(pool).get(i).copied())
                                    .collect();
                                median(&across)
                            })
                            .collect(),
                    );
                    let tail = supported_tail(pooled.len())
                        .map(|(label, tq)| (label, percentile(&pooled, tq)));
                    (
                        percentile(&typical, q),
                        per_rep,
                        Some((events, pooled.len())),
                        tail,
                    )
                }
            };
            if !(value.is_finite() && value > 0.0) {
                problems.push(format!("{} is {value}, not a positive number", m.name));
            }
            let spread = spread(&per_rep);
            let resolution = spread / (per_rep.len().max(1) as f64).sqrt();
            Measured {
                name: m.name,
                unit: m.unit,
                value,
                per_rep,
                spread,
                resolution,
                noisy: resolution > m.bound,
                samples,
                tail,
            }
        })
        .collect();

    // Per-layer values: median over the traced replays, then the derived
    // rows that need both kinds of replay or the set-up.
    let mut layers = Layers::new();
    if !traced.is_empty() {
        for m in &PER_LAYER {
            let values: Vec<f64> = traced
                .iter()
                .filter_map(|r| r.layers.get(m.name).copied())
                .collect();
            if !values.is_empty() {
                layers.insert(m.name, median(&values));
            }
        }
        let wall = |reps: &[Rep]| median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        layers.insert(
            "telemetry.overhead_ratio",
            ratio(wall(&untraced), wall(&traced)),
        );
        if let Some(log) = traced.last().and_then(|r| r.trace.as_ref()) {
            layers.insert("telemetry.trace_events", log.recorded_events as f64);
            layers.insert("telemetry.trace_dropped", log.dropped_events as f64);
        }
        let setup = workload.setup_times();
        layers.insert("scene.render_s", setup.render_s);
        layers.insert("orbit.schedule_s", setup.schedule_s);
        layers.insert("cloud.train_s", setup.train_s);
        layers.insert("bench.timer_overhead_ns", timer_overhead);
    }
    let mut ledger = Vec::new();
    if let Some(&wall) = layers.get("bench.replay_wall_s") {
        for name in LEDGER_ROWS {
            let seconds = layers.get(name).copied().unwrap_or(0.0);
            if seconds > 0.0 {
                ledger.push(LedgerRow {
                    name,
                    seconds,
                    share: ratio(seconds, wall),
                });
            }
        }
        let unattributed = wall - ledger.iter().map(|r| r.seconds).sum::<f64>();
        layers.insert("bench.unattributed_s", unattributed);
        layers.insert("bench.unattributed_share", ratio(unattributed, wall));
        ledger.push(LedgerRow {
            name: "bench.unattributed_s",
            seconds: unattributed,
            share: ratio(unattributed, wall),
        });
    }
    let per_layer = PER_LAYER
        .iter()
        .map(|m| (m.name, m.unit, layers.get(m.name).copied().unwrap_or(0.0)))
        .collect();

    let psnr_min_db = untraced
        .iter()
        .chain(&traced)
        .map(|r| r.tally.psnr_min)
        .fold(f64::INFINITY, f64::min);
    let traced_reps = traced.len();
    let trace = traced.pop().and_then(|r| r.trace);
    Ok(Outcome {
        workload: options.workload.clone(),
        seed: options.seed,
        tape_hash,
        reps: untraced.len(),
        traced_reps,
        window_s,
        end_to_end,
        per_layer,
        ledger,
        attempted,
        failed,
        problems,
        psnr_min_db,
        timer_overhead_ns: timer_overhead,
        spans,
        trace,
    })
}
