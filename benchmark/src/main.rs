//! The performance ledger: one benchmark for the whole system.
//!
//! ```text
//! ledger run [--seed N] [--seconds S] [--runs K]
//!         every workload, end to end and traced -> benchmark/out/results.json
//! ledger run --workload W [--seed N] [--seconds S] [--trace 0|1]
//!         one run of one workload; the last line of output is one JSON object
//! ledger compare A.json B.json
//!         per workload and metric: medians, quartiles, bound, verdict
//! ```
//!
//! Run it from the repository root; README.md has the tables.

mod batch;
mod compare;
mod gate;
mod host;
mod ledger;
mod micro;
mod run;
mod serve_live;
mod serve_sat;
mod spec;
mod stats;
mod trace;

use ledger::RunArgs;
use std::process::ExitCode;

const USAGE: &str = "\
usage: ledger run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--runs K]
       ledger compare A.json B.json
workloads: table3 tree1365 dispatch85 serve_sat serve_live";

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 2003,
        seconds: 15.0,
        trace: false,
        runs: 1,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" if spec::WORKLOADS.contains(&value.as_str()) => {
                parsed.workload = Some(value.clone())
            }
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => parsed.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => parsed.seconds = value.parse().map_err(|e| bad(&e))?,
            "--runs" => parsed.runs = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(parsed.seconds.is_finite() && parsed.seconds > 0.0) || parsed.runs == 0 {
        return Err("--seconds and --runs must be positive".to_string());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    // Before any thread exists: no host setting may pick a shard, thread
    // or island count for the code under measurement.
    for var in spec::SCRUBBED_ENV {
        std::env::remove_var(var);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|run| match &run.workload {
            Some(workload) => ledger::one_run(workload, &run),
            None => ledger::full_run(&run),
        }),
        Some("compare") if args.len() == 3 => {
            compare::compare(&args[1], &args[2]).map(|clean| u8::from(!clean))
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
