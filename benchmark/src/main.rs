//! Command line of the benchmark.
//!
//! ```text
//! benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//! benchmark compare <base.json> <candidate.json>
//! benchmark describe            # prints BENCHMARK.json
//! ```
//!
//! The last line of standard output of a run is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`; the exit code is
//! non-zero when an output check failed.

use earthplus_benchmark::metrics::{benchmark_json, RUN_SECONDS, WORKLOADS};
use earthplus_benchmark::report;
use earthplus_benchmark::runner::{run, Options};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: benchmark --workload <name|all> [--seed N] [--seconds S] \
                     [--trace 0|1 | --traced] [--smoke] [--out FILE]\n       \
                     benchmark compare <base.json> <candidate.json>\n       \
                     benchmark describe";

struct Cli {
    options: Options,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = 11u64;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => trace = true,
            "--smoke" => smoke = true,
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.iter().any(|w| w.name == workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload {workload:?}; one of {names:?} or \"all\""
        ));
    }
    Ok(Cli {
        options: Options {
            workload,
            seed,
            // A smoke run is a functional check: two replays of each kind.
            seconds: seconds.unwrap_or(if smoke { 0.01 } else { RUN_SECONDS as f64 }),
            trace,
            smoke,
        },
        out,
    })
}

fn run_cli(cli: &Cli) -> Result<bool, String> {
    let names: Vec<&str> = if cli.options.workload == "all" {
        WORKLOADS.iter().map(|w| w.name).collect()
    } else {
        vec![cli.options.workload.as_str()]
    };
    let mut sections = Vec::new();
    let mut all_correct = true;
    for name in names {
        let options = Options {
            workload: name.to_owned(),
            ..cli.options.clone()
        };
        let mut outcome = run(&options)?;
        if options.trace {
            outcome.problems.extend(report::write_traces(&outcome));
        }
        all_correct &= outcome.correct();
        print!("{}", report::table(&outcome));
        sections.push((name.to_owned(), report::workload_json(&outcome)));
        println!("{}", report::driver_line(&outcome, options.trace));
    }
    if let Some(path) = &cli.out {
        report::write_result(path, &cli.options, sections)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("describe") => {
            print!("{}", benchmark_json().to_pretty());
            Ok(true)
        }
        Some("compare") => match &args[1..] {
            [base, candidate] => {
                report::compare(base.as_ref(), candidate.as_ref()).map(|(table, regressed)| {
                    print!("{table}");
                    !regressed
                })
            }
            _ => Err(USAGE.to_owned()),
        },
        Some("--help" | "-h") | None => Err(USAGE.to_owned()),
        Some(_) => parse(&args).and_then(|cli| run_cli(&cli)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
