//! The verification CLI: a seeded fuzz campaign with shrinking.
//!
//! ```text
//! verify fuzz [--seeds N] [--start S] [--quick] [--serve] [--crash]
//!             [--replay FILE] [--shards N] [--policy P] [--out FILE]
//! ```
//!
//! Runs `N` generated cases (default 100) starting at seed `S`
//! (default 0). Every failure is shrunk to a minimal replayable case
//! and printed as a ready-to-paste regression line; with `--out` a JSON
//! summary is written, and any failures also land in
//! `verify-fuzz-failures.txt` next to it so CI can upload them as an
//! artifact. Exits non-zero if any case failed.
//!
//! `--serve` switches to the serve-mode corpus: random JSONL request
//! streams plus elasticity directives pushed through the live-injection
//! serve loop (`GridService::run_scripted`) under the same checker.
//!
//! `--crash` switches to the durability corpus: each serve case runs
//! with a write-ahead log, is killed at a seed-chosen point (half the
//! time with a torn log tail), recovered from the log and required to
//! finish bit-identical to an uninterrupted run.
//!
//! `--serve --replay FILE` is the determinism gate for recorded
//! sessions: the `agentgrid serve --record` file (or raw WAL) is
//! replayed twice and the two runs must match byte-for-byte.
//!
//! `--shards N` forces every case onto `N` agent-subtree shards
//! (DESIGN.md §13) instead of the generated per-case value: re-running
//! one corpus at several shard counts must give identical verdicts.
//!
//! The batch corpus also reads `SHARDS` (overridden by `--shards`),
//! `GA_THREADS` and `GA_ISLANDS` from the environment, so one corpus can
//! be re-run at several shard counts and GA shapes from a CI matrix.
//!
//! `--policy P` pins every planned case (designs 2/3) to one scheduler
//! zoo entrant (`fifo|ga|batch|minmin|maxmin|sufferage|anneal`) instead
//! of the generated per-case draw, so a whole corpus can stress a
//! single policy. Without it each case draws its own policy, and a
//! failing case shrinks towards FIFO first (DESIGN.md §15).

use agentgrid::prelude::*;
use agentgrid_serve::{read_recording, GridService, ServeConfig, TunerConfig};
use agentgrid_verify::crash::crash_corpus;
use agentgrid_verify::fuzz::{fuzz_corpus_with, GaShape};
use agentgrid_verify::serve_fuzz::serve_fuzz_corpus;
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "usage: verify fuzz [--seeds N] [--start S] [--quick] [--serve] [--crash] \
                     [--replay FILE] [--shards N] [--policy P] [--out FILE]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) != Some("fuzz") {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }

    let mut seeds: usize = 100;
    let mut start: u64 = 0;
    let mut quick = false;
    let mut serve = false;
    let mut crash = false;
    let mut replay: Option<String> = None;
    let mut shards: Option<usize> = None;
    let mut policy: Option<PolicyKind> = None;
    let mut out: Option<String> = None;
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seeds" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => seeds = v,
                None => return bad_usage("--seeds needs a number"),
            },
            "--start" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => start = v,
                None => return bad_usage("--start needs a number"),
            },
            "--quick" => quick = true,
            "--serve" => serve = true,
            "--crash" => crash = true,
            "--replay" => match it.next() {
                Some(v) => replay = Some(v.clone()),
                None => return bad_usage("--replay needs a path"),
            },
            "--shards" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => shards = Some(v),
                _ => return bad_usage("--shards needs a number >= 1"),
            },
            "--policy" => match it.next().and_then(|v| PolicyKind::parse(v)) {
                Some(p) => policy = Some(p),
                None => {
                    return bad_usage(
                        "--policy needs one of fifo|ga|batch|minmin|maxmin|sufferage|anneal",
                    )
                }
            },
            "--out" => match it.next() {
                Some(v) => out = Some(v.clone()),
                None => return bad_usage("--out needs a path"),
            },
            other => return bad_usage(&format!("unknown flag {other}")),
        }
    }
    // Environment defaults of the batch corpus (a flag wins); the serve
    // and crash corpora take neither.
    let batch_shards = shards.or(env_count("SHARDS"));
    let ga = GaShape {
        threads: env_count("GA_THREADS").map_or(1, |n| n.min(64)),
        islands: env_count("GA_ISLANDS").map_or(1, |n| n.min(64)),
    };
    if let Some(path) = &replay {
        if !serve || crash {
            return bad_usage("--replay needs --serve (and not --crash)");
        }
        return replay_gate(path);
    }

    // Failing candidates panic constantly while the shrinker probes
    // them; keep those backtraces off the terminal.
    std::panic::set_hook(Box::new(|_| {}));
    let mut ran = 0usize;
    let mut progress = |seed: u64, failure: Option<&agentgrid_verify::CaseFailure>| {
        ran += 1;
        if let Some(f) = failure {
            eprintln!("seed {seed}: FAILED ({f}) — shrinking...");
        } else if ran.is_multiple_of(25) {
            eprintln!("... {ran} cases, clean so far");
        }
    };
    let (summary, failure_lines) = if crash {
        if shards.is_some() {
            return bad_usage("--shards applies to the batch corpus, not --crash");
        }
        if policy.is_some() {
            return bad_usage("--policy applies to the batch corpus, not --crash");
        }
        let report = crash_corpus(start, seeds, quick, |case, failure| {
            progress(case.fuzz.seed, failure)
        });
        let lines: Vec<(String, String, String)> = report
            .failures
            .iter()
            .map(|f| {
                (
                    format!("seed {} -> shrunk to: {:?}", f.case.fuzz.seed, f.shrunk),
                    f.failure.to_string(),
                    format!("let case = {:?}; assert!(case.run().is_some());", f.shrunk),
                )
            })
            .collect();
        (
            Summary {
                label: "verify fuzz --crash",
                cases: report.cases,
                events: 0,
                clean: report.is_clean(),
            },
            lines,
        )
    } else if serve {
        if shards.is_some() {
            return bad_usage("--shards applies to the batch corpus, not --serve");
        }
        if policy.is_some() {
            return bad_usage("--policy applies to the batch corpus, not --serve");
        }
        let report = serve_fuzz_corpus(start, seeds, quick, |case, failure| {
            progress(case.seed, failure)
        });
        let lines: Vec<(String, String, String)> = report
            .failures
            .iter()
            .map(|f| {
                (
                    format!("seed {} -> shrunk to: {:?}", f.case.seed, f.shrunk),
                    f.failure.to_string(),
                    f.shrunk.regression_line(),
                )
            })
            .collect();
        (
            Summary {
                label: "verify fuzz --serve",
                cases: report.cases,
                events: report.events,
                clean: report.is_clean(),
            },
            lines,
        )
    } else {
        let report = fuzz_corpus_with(start, seeds, quick, batch_shards, policy, ga, |case, f| {
            progress(case.seed, f)
        });
        let lines: Vec<(String, String, String)> = report
            .failures
            .iter()
            .map(|f| {
                (
                    format!("seed {} -> shrunk to: {:?}", f.case.seed, f.shrunk),
                    f.failure.to_string(),
                    f.shrunk.regression_line(),
                )
            })
            .collect();
        (
            Summary {
                label: "verify fuzz",
                cases: report.cases,
                events: report.events,
                clean: report.is_clean(),
            },
            lines,
        )
    };
    let _ = std::panic::take_hook();

    println!(
        "{}: {} case(s), {} telemetry events checked, {} failure(s)",
        summary.label,
        summary.cases,
        summary.events,
        failure_lines.len()
    );
    let mut artifact_lines = Vec::new();
    for (head, failure, regression) in &failure_lines {
        println!("  {head}");
        println!("    failure: {failure}");
        println!("    regression: {regression}");
        artifact_lines.push(format!("{regression}\n  // {failure}\n"));
    }
    let failure_lines = artifact_lines;

    if let Some(path) = &out {
        if let Err(e) = write_report(path, &summary, &failure_lines, quick, start) {
            eprintln!("verify: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        if !failure_lines.is_empty() {
            let artifact = sibling(path, "verify-fuzz-failures.txt");
            if let Err(e) = std::fs::write(&artifact, failure_lines.concat()) {
                eprintln!("verify: cannot write {artifact}: {e}");
            } else {
                eprintln!("verify: failure artifact at {artifact}");
            }
        }
    }

    if summary.clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The recorded-session determinism gate (`--serve --replay FILE`):
/// replay the recording twice through the acceptance-order replay path
/// and require the two runs to match byte-for-byte under the checker.
fn replay_gate(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("verify: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (meta, lines) = match read_recording(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("verify: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(meta) = meta else {
        eprintln!(
            "verify: {path} has no recording header; replay it with \
             `agentgrid serve --replay` and explicit topology flags instead"
        );
        return ExitCode::FAILURE;
    };
    let topology = match GridTopology::from_spec(&meta.topology) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("verify: {path} header: {e}");
            return ExitCode::FAILURE;
        }
    };
    let policy = match LocalPolicy::parse(&meta.policy) {
        Some(p) => p,
        None => {
            eprintln!("verify: {path} header: unknown policy `{}`", meta.policy);
            return ExitCode::FAILURE;
        }
    };
    let mut opts = RunOptions::paper();
    if meta.noise > 0.0 {
        opts.noise = NoiseModel::LogNormal { sigma: meta.noise };
    }
    let cfg = ServeConfig {
        topology,
        design: ExperimentDesign {
            number: 0,
            local_policy: policy,
            agents_enabled: meta.agents,
        },
        opts,
        seed: meta.seed,
        verify: true,
        tune: meta.tune.then(TunerConfig::default),
        wal: None,
        record: None,
    };
    let sim_metrics = |text: &str| -> String {
        text.lines()
            .filter(|l| !l.contains("ga_generation_wall_us"))
            .map(|l| format!("{l}\n"))
            .collect()
    };
    let a = match GridService::run_replay(&cfg, &lines) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("verify: replay failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let b = match GridService::run_replay(&cfg, &lines) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("verify: second replay failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let deterministic = a.result.to_json() == b.result.to_json()
        && sim_metrics(&a.metrics_text) == sim_metrics(&b.metrics_text);
    println!(
        "verify fuzz --serve --replay: {} line(s), {} completed, deterministic: {}, clean: {}",
        lines.len(),
        a.completed,
        deterministic,
        a.clean && b.clean
    );
    if !deterministic {
        eprintln!("verify: the two replays diverged — the recording is not deterministic");
    }
    if !a.clean {
        eprintln!("{}", a.verify_report.unwrap_or_default());
    }
    if deterministic && a.clean && b.clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Corpus totals shared by both fuzz modes.
struct Summary {
    label: &'static str,
    cases: usize,
    events: u64,
    clean: bool,
}

fn bad_usage(msg: &str) -> ExitCode {
    eprintln!("verify: {msg}\n{USAGE}");
    ExitCode::from(2)
}

/// Place `name` in the same directory as `path`.
fn sibling(path: &str, name: &str) -> String {
    match std::path::Path::new(path).parent() {
        Some(dir) if dir.as_os_str().is_empty() => name.to_string(),
        Some(dir) => dir.join(name).to_string_lossy().into_owned(),
        None => name.to_string(),
    }
}

fn write_report(
    path: &str,
    summary: &Summary,
    failure_lines: &[String],
    quick: bool,
    start: u64,
) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    let failures: Vec<String> = failure_lines
        .iter()
        .map(|l| format!("\"{}\"", escape(l.trim_end())))
        .collect();
    writeln!(
        f,
        "{{\"mode\": \"{}\", \"cases\": {}, \"start\": {start}, \"quick\": {quick}, \
         \"events\": {}, \"failures\": [{}]}}",
        summary.label,
        summary.cases,
        summary.events,
        failures.join(", ")
    )
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// A count of at least 1 from environment variable `name`; unset,
/// unparsable and zero values read as absent.
fn env_count(name: &str) -> Option<usize> {
    std::env::var(name)
        .ok()?
        .parse::<usize>()
        .ok()
        .filter(|n| *n >= 1)
}
