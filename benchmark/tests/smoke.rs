//! All four workloads at smoke size: every replay's outputs check out,
//! every metric the driver expects is present, and inputs are a function
//! of the seed.

use earthplus_benchmark::json::Json;
use earthplus_benchmark::metrics::{END_TO_END, LEDGER_ROWS, PER_LAYER, WORKLOADS};
use earthplus_benchmark::report::{driver_line, workload_json};
use earthplus_benchmark::runner::{build, run, Options};

fn smoke(workload: &str, seed: u64, trace: bool) -> Options {
    Options {
        workload: workload.to_owned(),
        seed,
        seconds: 0.01,
        trace,
        smoke: true,
    }
}

#[test]
fn every_workload_runs_correct_and_reports_every_metric() {
    for w in &WORKLOADS {
        let outcome = run(&smoke(w.name, 11, true)).expect("known workload");
        assert!(outcome.correct(), "{}: {:?}", w.name, outcome.problems);
        assert_eq!(outcome.failed, 0);
        assert!(outcome.attempted >= 1);
        assert!(outcome.reps >= 2 && outcome.traced_reps >= 1);

        // Every end-to-end metric, on every workload, positive and finite.
        assert_eq!(outcome.end_to_end.len(), END_TO_END.len());
        for m in &outcome.end_to_end {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} {} = {}",
                w.name,
                m.name,
                m.value
            );
            assert_eq!(
                m.per_rep.len(),
                if m.name == "setup_s" { 1 } else { outcome.reps }
            );
        }

        // The driver's two lines: end-to-end untraced, per-layer traced.
        for (trace, expected) in [(false, END_TO_END.len()), (true, PER_LAYER.len())] {
            let line = Json::parse(&driver_line(&outcome, trace)).expect("one JSON object");
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
            let metrics = line.get("metrics").and_then(Json::as_obj).expect("metrics");
            assert_eq!(metrics.len(), expected);
            for (name, metric) in metrics {
                assert!(
                    metric.get("value").and_then(Json::as_f64).is_some(),
                    "{name}"
                );
                assert!(
                    metric.get("unit").and_then(Json::as_str).is_some(),
                    "{name}"
                );
            }
        }

        // The ledger tiles the replay wall.
        let wall = outcome
            .per_layer
            .iter()
            .find(|(n, _, _)| *n == "bench.replay_wall_s")
            .map(|&(_, _, v)| v)
            .expect("wall row");
        let sum: f64 = outcome.ledger.iter().map(|r| r.seconds).sum();
        assert!(
            (sum - wall).abs() <= 1e-9 * wall.max(1.0),
            "{}: {sum} vs {wall}",
            w.name
        );
        assert!(outcome
            .ledger
            .iter()
            .all(|r| r.name == "bench.unattributed_s" || LEDGER_ROWS.contains(&r.name)));
        assert!(!outcome.spans.spans().is_empty());
        assert!(outcome.trace.as_ref().is_some_and(|log| !log.is_empty()));

        // The result-file section round-trips through the reader.
        let section = workload_json(&outcome);
        assert_eq!(Json::parse(&section.to_pretty()).unwrap(), section);
    }
}

#[test]
fn inputs_are_a_function_of_the_seed() {
    for w in &WORKLOADS {
        let hash = |seed| {
            build(w.name, seed, true)
                .expect("known workload")
                .identity()
        };
        let (a, again, b) = (hash(11), hash(11), hash(12));
        assert_eq!(a, again, "{}: same seed, different inputs", w.name);
        assert_ne!(a, b, "{}: different seeds, same inputs", w.name);
    }
}

#[test]
fn an_untraced_run_reports_no_ledger_and_unknown_names_are_refused() {
    let outcome = run(&smoke("codec_stream", 3, false)).expect("known workload");
    assert!(outcome.correct(), "{:?}", outcome.problems);
    assert_eq!(outcome.traced_reps, 0);
    assert!(outcome.ledger.is_empty() && outcome.trace.is_none());
    assert!(outcome.per_layer.iter().all(|&(_, _, v)| v == 0.0));
    assert!(run(&smoke("mission_poor", 3, false)).is_err());
}
