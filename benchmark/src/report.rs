//! What a run prints and writes: the table on standard output, the one
//! JSON line the driver reads, the result file, and the comparison of two
//! result files.

use crate::json::{obj, Json};
use crate::metrics::{Better, END_TO_END};
use crate::runner::{Measured, Options, Outcome};
use crate::store::{backend_description, nproc, out_dir};
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// The line the driver parses: last on standard output.
pub fn driver_line(outcome: &Outcome, trace: bool) -> String {
    let metric = |value: f64, unit: &str| obj([("value", value.into()), ("unit", unit.into())]);
    let metrics = if trace {
        outcome
            .per_layer
            .iter()
            .map(|&(name, unit, value)| (name.to_owned(), metric(value, unit)))
            .collect()
    } else {
        outcome
            .end_to_end
            .iter()
            .map(|m| (m.name.to_owned(), metric(m.value, m.unit)))
            .collect()
    };
    obj([
        ("correct", outcome.correct().into()),
        ("attempted", outcome.attempted.into()),
        ("failed", outcome.failed.into()),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_line()
}

/// The human-readable report of one run.
pub fn table(outcome: &Outcome) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {}  seed {}  tape {:016x}  {} untraced + {} traced replays in {:.2} s",
        outcome.workload,
        outcome.seed,
        outcome.tape_hash,
        outcome.reps,
        outcome.traced_reps,
        outcome.window_s
    );
    for m in &outcome.end_to_end {
        let _ = write!(
            out,
            "{:<28} {:>14.4} {:<7} rep spread {:>5.1}% resolves {:>4.1}%{}",
            m.name,
            m.value,
            m.unit,
            m.spread * 100.0,
            m.resolution * 100.0,
            if m.noisy { "  NOISY" } else { "" }
        );
        if let Some((events, pooled)) = m.samples {
            let _ = write!(out, "  {events} events, {pooled} samples");
        }
        if let Some((label, value)) = m.tail {
            let _ = write!(out, "  [raw pooled {label} {value:.4}, information only]");
        }
        out.push('\n');
    }
    let _ = writeln!(
        out,
        "ops_attempted {}  ops_failed {}  psnr_min {:.2} dB  timer_overhead {:.0} ns",
        outcome.attempted, outcome.failed, outcome.psnr_min_db, outcome.timer_overhead_ns
    );
    if !outcome.ledger.is_empty() {
        let _ = writeln!(out, "-- ledger (median traced replay)");
        for row in &outcome.ledger {
            let _ = writeln!(
                out,
                "{:<28} {:>10.4} s {:>6.1}%",
                row.name,
                row.seconds,
                row.share * 100.0
            );
        }
        let _ = writeln!(out, "-- per-layer");
        for &(name, unit, value) in &outcome.per_layer {
            let _ = writeln!(out, "{name:<34} {value:>16.4} {unit}");
        }
    }
    for problem in &outcome.problems {
        let _ = writeln!(out, "CHECK FAILED: {problem}");
    }
    out
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// The instruction-set extensions this binary was compiled to use — what
/// `-C target-cpu` came to on the build machine.
fn target_features() -> Vec<&'static str> {
    let mut features = Vec::new();
    for (name, on) in [
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("bmi2", cfg!(target_feature = "bmi2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("neon", cfg!(target_feature = "neon")),
    ] {
        if on {
            features.push(name);
        }
    }
    features
}

/// The environment block of a result file.
pub fn environment(options: &Options) -> Json {
    obj([
        ("nproc", nproc().into()),
        ("rustc", command_line("rustc", &["-V"]).into()),
        ("target_arch", std::env::consts::ARCH.into()),
        ("target_features", target_features().into()),
        (
            "git_commit",
            command_line("git", &["rev-parse", "HEAD"]).into(),
        ),
        ("backend", backend_description().into()),
        ("seed", options.seed.into()),
        ("seconds", options.seconds.into()),
        ("smoke", options.smoke.into()),
    ])
}

fn measured_json(m: &Measured) -> Json {
    let mut members = vec![
        ("value".to_owned(), m.value.into()),
        ("unit".to_owned(), m.unit.into()),
        ("per_rep".to_owned(), m.per_rep.clone().into()),
        ("spread".to_owned(), m.spread.into()),
        ("resolution".to_owned(), m.resolution.into()),
        ("noisy".to_owned(), m.noisy.into()),
    ];
    if let Some((events, pooled)) = m.samples {
        members.push(("events".to_owned(), events.into()));
        members.push(("pooled_samples".to_owned(), pooled.into()));
    }
    if let Some((label, value)) = m.tail {
        members.push((format!("info_raw_pooled_{label}"), value.into()));
    }
    Json::Obj(members)
}

/// One workload's section of a result file.
pub fn workload_json(outcome: &Outcome) -> Json {
    obj([
        ("tape_hash", format!("{:016x}", outcome.tape_hash).into()),
        ("reps", outcome.reps.into()),
        ("traced_reps", outcome.traced_reps.into()),
        ("window_s", outcome.window_s.into()),
        ("ops_attempted", outcome.attempted.into()),
        ("ops_failed", outcome.failed.into()),
        ("correct", outcome.correct().into()),
        ("problems", outcome.problems.clone().into()),
        ("psnr_min_db", outcome.psnr_min_db.into()),
        ("bench.timer_overhead_ns", outcome.timer_overhead_ns.into()),
        (
            "end_to_end",
            Json::Obj(
                outcome
                    .end_to_end
                    .iter()
                    .map(|m| (m.name.to_owned(), measured_json(m)))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Obj(
                outcome
                    .per_layer
                    .iter()
                    .map(|&(name, unit, value)| {
                        (
                            name.to_owned(),
                            obj([("value", value.into()), ("unit", unit.into())]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "ledger",
            Json::Arr(
                outcome
                    .ledger
                    .iter()
                    .map(|r| {
                        obj([
                            ("name", r.name.into()),
                            ("seconds", r.seconds.into()),
                            ("share", r.share.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Writes the bench spans and the Chrome trace of a traced run under
/// [`out_dir`]; returns what could not be written.
pub fn write_traces(outcome: &Outcome) -> Vec<String> {
    let mut errors = Vec::new();
    let dir = out_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        return vec![format!("{}: {e}", dir.display())];
    }
    let spans = dir.join(format!("{}.spans.jsonl", outcome.workload));
    if let Err(e) = outcome.spans.write_jsonl(&spans) {
        errors.push(format!("{}: {e}", spans.display()));
    }
    if let Some(log) = &outcome.trace {
        let trace = dir.join(format!("{}.trace.json", outcome.workload));
        if let Err(e) = std::fs::write(&trace, log.to_chrome_trace()) {
            errors.push(format!("{}: {e}", trace.display()));
        }
    }
    errors
}

/// Writes a result file holding `sections`.
///
/// # Errors
///
/// Propagates file I/O errors.
pub fn write_result(
    path: &Path,
    options: &Options,
    sections: Vec<(String, Json)>,
) -> std::io::Result<()> {
    let file = obj([
        ("schema", 1u64.into()),
        ("env", environment(options)),
        ("workloads", Json::Obj(sections)),
    ]);
    std::fs::write(path, file.to_pretty())
}

/// The verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and the spread lets that be seen.
    Ok,
    /// Worse than the base by more than the bound.
    Regressed,
    /// Within the bound, but a spread wider than the bound hides what
    /// happened.
    Unresolved,
}

/// Judges `candidate` against `base`. Each side is `(value, resolution,
/// per-replay values)`; a resolution (replay spread over the square root
/// of the replay count) coarser than the bound leaves the metric
/// unresolved unless every candidate replay beats every base replay.
pub fn judge(
    better: Better,
    bound: f64,
    base: (f64, f64, &[f64]),
    candidate: (f64, f64, &[f64]),
) -> Verdict {
    let (a, a_resolution, a_reps) = base;
    let (b, b_resolution, b_reps) = candidate;
    let worse_by = match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    };
    if worse_by > bound {
        return Verdict::Regressed;
    }
    if a_resolution.max(b_resolution) > bound {
        let beats = |x: f64, y: f64| match better {
            Better::Lower => x < y,
            Better::Higher => x > y,
        };
        let clean_win = !a_reps.is_empty()
            && !b_reps.is_empty()
            && b_reps.iter().all(|&x| a_reps.iter().all(|&y| beats(x, y)));
        if !clean_win {
            return Verdict::Unresolved;
        }
    }
    Verdict::Ok
}

/// Compares two result files metric by metric; returns the printed table
/// and whether anything regressed.
///
/// # Errors
///
/// Returns a message when a file is missing, malformed, or shares no
/// workload with the other.
pub fn compare(base: &Path, candidate: &Path) -> Result<(String, bool), String> {
    let load = |path: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (a, b) = (load(base)?, load(candidate)?);
    let workloads = |j: &Json| j.get("workloads").and_then(Json::as_obj).map(<[_]>::to_vec);
    let (wa, wb) = (
        workloads(&a).ok_or("base has no workloads")?,
        workloads(&b).ok_or("candidate has no workloads")?,
    );
    let read = |section: &Json, metric: &str| -> Option<(f64, f64, Vec<f64>)> {
        let m = section.get("end_to_end")?.get(metric)?;
        let reps = m
            .get("per_rep")?
            .as_arr()?
            .iter()
            .filter_map(Json::as_f64)
            .collect();
        Some((
            m.get("value")?.as_f64()?,
            m.get("resolution")?.as_f64()?,
            reps,
        ))
    };
    let mut out = String::new();
    let mut regressed = false;
    let mut compared = 0;
    let _ = writeln!(
        out,
        "{:<22} {:<28} {:>14} {:>14} {:>8}  verdict   (ratio = candidate / base)",
        "workload", "metric", "base", "candidate", "ratio"
    );
    for (name, section_a) in &wa {
        let Some((_, section_b)) = wb.iter().find(|(n, _)| n == name) else {
            continue;
        };
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (read(section_a, m.name), read(section_b, m.name)) else {
                return Err(format!("{name}: {} missing from a result file", m.name));
            };
            let verdict = judge(m.better, m.bound, (x.0, x.1, &x.2), (y.0, y.1, &y.2));
            regressed |= verdict == Verdict::Regressed;
            compared += 1;
            let _ = writeln!(
                out,
                "{:<22} {:<28} {:>14.4} {:>14.4} {:>8.4}  {}",
                name,
                m.name,
                x.0,
                y.0,
                y.0 / x.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    if compared == 0 {
        return Err("the result files share no workload".to_owned());
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_direction_bound_and_spread() {
        let quiet = |v: f64| (v, 0.01, [v].as_slice().to_vec());
        let j = |better, bound, a: &(f64, f64, Vec<f64>), b: &(f64, f64, Vec<f64>)| {
            judge(better, bound, (a.0, a.1, &a.2), (b.0, b.1, &b.2))
        };
        // Lower is better: 8 % slower inside a 10 % bound, 12 % outside.
        assert_eq!(
            j(Better::Lower, 0.10, &quiet(100.0), &quiet(108.0)),
            Verdict::Ok
        );
        assert_eq!(
            j(Better::Lower, 0.10, &quiet(100.0), &quiet(112.0)),
            Verdict::Regressed
        );
        // Higher is better: the same numbers the other way round.
        assert_eq!(
            j(Better::Higher, 0.10, &quiet(100.0), &quiet(92.0)),
            Verdict::Ok
        );
        assert_eq!(
            j(Better::Higher, 0.10, &quiet(100.0), &quiet(88.0)),
            Verdict::Regressed
        );
        assert_eq!(
            j(Better::Higher, 0.10, &quiet(100.0), &quiet(150.0)),
            Verdict::Ok
        );
        // A resolution coarser than the bound hides a within-bound change...
        let loud = (100.0, 0.2, vec![90.0, 100.0, 110.0]);
        assert_eq!(
            j(Better::Lower, 0.10, &loud, &quiet(101.0)),
            Verdict::Unresolved
        );
        // ...unless every candidate replay beats every base replay.
        assert_eq!(j(Better::Lower, 0.10, &loud, &quiet(80.0)), Verdict::Ok);
        // A regression is a regression however loud the base was.
        assert_eq!(
            j(Better::Lower, 0.10, &loud, &quiet(130.0)),
            Verdict::Regressed
        );
    }
}
