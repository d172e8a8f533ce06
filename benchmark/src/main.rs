//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! atmem-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run (the driver's form)
//! atmem-benchmark run [--seed N] [--seconds S] [--workload NAME]     every workload, untraced then traced
//! atmem-benchmark check                                              smoke run against BENCHMARK.json
//! atmem-benchmark compare A.json B.json                              two result files against the bounds
//! atmem-benchmark manifest                                           the text of BENCHMARK.json
//! ```

mod json;
mod measure;
mod metrics;
mod probes;
mod tools;
mod trace;
mod util;
mod workloads;

use std::process::ExitCode;

use measure::{measure, Opts};

/// Where trace and result files go.
pub const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
pub const MANIFEST_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
/// Marks the line of a run's output that carries its full record.
pub const DETAIL_PREFIX: &str = "DETAIL ";

const USAGE: &str = "usage: atmem-benchmark --workload NAME --seed N --seconds S --trace 0|1
       atmem-benchmark run [--seed N] [--seconds S] [--workload NAME]
       atmem-benchmark check | manifest | compare A.json B.json";

/// `--flag value` pairs; `None` on anything else.
fn flags(args: &[String]) -> Option<Vec<(&str, &str)>> {
    if !args.len().is_multiple_of(2) {
        return None;
    }
    args.chunks(2)
        .map(|pair| Some((pair[0].strip_prefix("--")?, pair[1].as_str())))
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "check" | "manifest" | "compare")) => (c, &args[1..]),
        _ => ("one", &args[..]),
    };
    match (command, rest) {
        ("check", []) => return tools::check(),
        ("manifest", []) => {
            print!("{}", metrics::manifest());
            return ExitCode::SUCCESS;
        }
        ("compare", [a, b]) => return tools::compare(a, b),
        ("run" | "one", _) => {}
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    }

    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = metrics::RUN_SECONDS as f64;
    let mut trace = false;
    let Some(pairs) = flags(rest) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    for (flag, value) in pairs {
        let ok = match flag {
            "workload" => {
                workload = Some(value);
                metrics::WORKLOADS.iter().any(|(name, _)| *name == value)
            }
            "seed" => value.parse().map(|v| seed = v).is_ok(),
            "seconds" => value
                .parse()
                .map(|v| seconds = v)
                .is_ok_and(|()| (0.0..=600.0).contains(&seconds)),
            "trace" if command == "one" => match value {
                "0" | "1" => {
                    trace = value == "1";
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            eprintln!("bad --{flag} {value}\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    if command == "run" {
        return tools::run_all(seed, seconds, workload);
    }
    let Some(workload) = workload else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let outcome = measure(&Opts::driver(workload, seed, seconds, trace))
        .expect("the workload name was checked above");
    outcome.report();
    ExitCode::SUCCESS
}
