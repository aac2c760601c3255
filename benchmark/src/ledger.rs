//! Running workloads and writing what they measured.
//!
//! [`one_run`] is one run of one workload in this process — the unit the
//! benchmark contract drives. [`full_run`] runs every workload, each run
//! in a child process of its own (so `peak_rss_mb` is per workload),
//! and assembles `results.json`.

use crate::batch::{self, Batch};
use crate::gate::Gate;
use crate::micro::{self, MicroInputs};
use crate::run::{EndToEndRun, Layers, Samples};
use crate::spec::{self, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartiles, sig, sorted, spread};
use crate::trace::Tracer;
use crate::{host, serve_live, serve_sat};
use agentgrid::prelude::Catalog;
use agentgrid_telemetry::json::{self, Value};
use std::process::Command;

/// Where runs leave their files. Relative: run from the repository root.
pub const OUT_DIR: &str = "benchmark/out";

pub struct RunArgs {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub runs: usize,
}

fn batch_kind(workload: &str) -> Option<Batch> {
    match workload {
        "table3" => Some(Batch::Table3),
        "tree1365" => Some(Batch::Tree1365),
        "dispatch85" => Some(Batch::Dispatch85),
        _ => None,
    }
}

fn ensure_at_root() -> Result<(), String> {
    if !std::path::Path::new("benchmark/Cargo.toml").is_file()
        || !std::path::Path::new("crates/serve").is_dir()
    {
        return Err(
            "run the ledger from the repository root (needs ./benchmark and ./crates)".into(),
        );
    }
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))
}

fn nums(values: &[f64]) -> Value {
    Value::Arr(values.iter().map(|v| json::num(*v)).collect())
}

/// A sample list read back; `null` is how JSON carries `+∞`.
pub fn read_nums(v: &Value) -> Vec<f64> {
    v.as_arr()
        .map(|a| {
            a.iter()
                .map(|x| x.as_f64().unwrap_or(f64::INFINITY))
                .collect()
        })
        .unwrap_or_default()
}

/// The value the one-line result carries for an end-to-end metric: the
/// median of its samples — or, on a workload with no such phase, the
/// rep's wall time in the metric's unit (README, "One line per run").
fn contract_value(metric: &spec::EndToEnd, samples: &Samples) -> f64 {
    let of = |name: &str| samples.get(name).map(|v| median(v));
    of(metric.name).unwrap_or_else(|| {
        let wall_s = of("wall_s").expect("every workload measures wall_s");
        match metric.unit {
            "ms" => wall_s * 1e3,
            _ => wall_s,
        }
    })
}

fn contract_line(gate: &Gate, metrics: Vec<(&str, f64, &str)>) -> String {
    let metrics = metrics
        .into_iter()
        .map(|(name, value, unit)| {
            (
                name,
                json::obj(vec![("value", json::num(value)), ("unit", json::s(unit))]),
            )
        })
        .collect();
    json::obj(vec![
        ("correct", Value::Bool(gate.correct())),
        ("attempted", json::num(gate.attempted() as f64)),
        ("failed", json::num(gate.failed() as f64)),
        ("metrics", json::obj(metrics)),
    ])
    .to_compact()
}

fn detail_path(workload: &str, trace: bool) -> String {
    let kind = if trace { "layers" } else { "e2e" };
    format!("{OUT_DIR}/run-{workload}-{kind}.json")
}

fn gate_fields(gate: &Gate) -> Vec<(&'static str, Value)> {
    vec![
        ("correct", Value::Bool(gate.correct())),
        ("attempted", json::num(gate.attempted() as f64)),
        ("failed", json::num(gate.failed() as f64)),
        (spec::FAILED_SHARE, json::num(gate.failed_share())),
        (
            "notes",
            Value::Arr(gate.notes().iter().map(|n| json::s(n.as_str())).collect()),
        ),
    ]
}

fn end_to_end(workload: &str, args: &RunArgs, gate: &mut Gate) -> Result<EndToEndRun, String> {
    let mut run = match (workload, batch_kind(workload)) {
        (_, Some(kind)) => batch::run(kind, args.seed, args.seconds, gate),
        ("serve_sat", _) => serve_sat::run(args.seed, args.seconds, OUT_DIR, gate)?,
        ("serve_live", _) => serve_live::run(args.seed, args.seconds, OUT_DIR, gate)?,
        _ => return Err(format!("unknown workload {workload:?}")),
    };
    // In-process workloads are this process; `serve_live` brought the
    // server's figure.
    if !run.samples.contains_key("peak_rss_mb") {
        let rss = host::peak_rss_mb("self").ok_or("cannot read VmHWM from /proc/self/status")?;
        run.samples.insert("peak_rss_mb", vec![rss]);
    }
    Ok(run)
}

fn micro_inputs(workload: &str, seed: u64) -> MicroInputs {
    let inputs = match workload {
        "table3" => Batch::Table3.inputs(seed),
        "tree1365" => Batch::Tree1365.inputs(seed),
        "serve_live" => {
            // The live lines are the case-study stream, 125 a second.
            let mut inputs = Batch::Table3.inputs(seed);
            inputs.workload.requests = 2000;
            inputs
        }
        _ => Batch::Dispatch85.inputs(seed),
    };
    MicroInputs {
        requests: inputs.workload.generate(&Catalog::case_study()),
        topology: inputs.topology,
        seed,
    }
}

fn per_layer(workload: &str, args: &RunArgs, gate: &mut Gate) -> Result<Layers, String> {
    let mut tracer = Tracer::new();
    let mut layers = match (workload, batch_kind(workload)) {
        (_, Some(kind)) => batch::run_traced(kind, args.seed, gate, &mut tracer),
        ("serve_sat", _) => serve_sat::run_traced(args.seed, OUT_DIR, gate, &mut tracer)?,
        ("serve_live", _) => {
            serve_live::run_traced(args.seed, args.seconds, OUT_DIR, gate, &mut tracer)?
        }
        _ => return Err(format!("unknown workload {workload:?}")),
    };
    let path = format!("{OUT_DIR}/trace-{workload}.json");
    std::fs::write(&path, tracer.to_chrome()).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "trace: {path} ({} spans not stored beyond the first {})",
        tracer.dropped(),
        crate::trace::STORED_SPANS
    );
    micro::run(&micro_inputs(workload, args.seed), OUT_DIR, &mut layers)?;
    Ok(layers)
}

/// One run of one workload; prints every metric by name with its unit,
/// then the one-line result. Returns the process exit code.
pub fn one_run(workload: &str, args: &RunArgs) -> Result<u8, String> {
    ensure_at_root()?;
    let mut gate = Gate::default();
    let mut detail = vec![
        ("workload", json::s(workload)),
        ("seed", json::num(args.seed as f64)),
        ("seconds", json::num(args.seconds)),
    ];
    let line = if args.trace {
        let layers = per_layer(workload, args, &mut gate)?;
        let mut metrics = Vec::new();
        for m in PER_LAYER {
            // A layer the workload never enters did no work: 0.
            let value = layers.get(m.name).copied().unwrap_or(0.0);
            println!("{workload} {:<32} {value:>16.3} {}", m.name, m.unit);
            metrics.push((m.name, value, m.unit));
        }
        detail.push((
            "layers",
            json::obj(
                metrics
                    .iter()
                    .map(|(n, v, _)| (*n, json::num(*v)))
                    .collect(),
            ),
        ));
        contract_line(&gate, metrics)
    } else {
        let run = end_to_end(workload, args, &mut gate)?;
        for (name, values) in &run.samples {
            let unit = spec::end_to_end(name).map_or("", |m| m.unit);
            let s = sorted(values.clone());
            let (q1, q2, q3) = quartiles(&s);
            println!(
                "{workload} {name:<16} {:>14} {unit:<4} (q1 {}, q3 {}, n {}, spread {:.1}%)",
                sig(q2),
                sig(q1),
                sig(q3),
                s.len(),
                spread((q1, q2, q3)) * 100.0
            );
        }
        println!(
            "{workload} {:<16} {:>14.6}      ({} failed of {})",
            spec::FAILED_SHARE,
            gate.failed_share(),
            gate.failed(),
            gate.attempted()
        );
        println!("{workload} sim_fingerprint  {:016x}", run.fingerprint);
        detail.push(("reps", json::num(run.reps as f64)));
        detail.push((
            "sim_fingerprint",
            json::s(format!("{:016x}", run.fingerprint)),
        ));
        detail.push((
            "samples",
            json::obj(run.samples.iter().map(|(n, v)| (*n, nums(v))).collect()),
        ));
        let metrics = END_TO_END
            .iter()
            .map(|m| (m.name, contract_value(m, &run.samples), m.unit))
            .collect();
        contract_line(&gate, metrics)
    };
    for note in gate.notes() {
        println!("{workload} FAILED: {note}");
    }
    detail.extend(gate_fields(&gate));
    let path = detail_path(workload, args.trace);
    std::fs::write(&path, json::obj(detail).to_pretty()).map_err(|e| format!("{path}: {e}"))?;
    println!("{line}");
    Ok(gate.exit_code())
}

fn num_field(detail: &Value, key: &str) -> f64 {
    detail.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

fn notes_of(detail: &Value) -> Vec<Value> {
    detail
        .get("notes")
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .to_vec()
}

/// Run `one_run` in a child process and read back what it wrote.
fn child_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<(Value, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let path = detail_path(workload, trace);
    let _ = std::fs::remove_file(&path);
    let status = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .status()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("the {workload} run left no {path}: {e} ({status})"))?;
    let detail = Value::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok((detail, status.success()))
}

fn summary(samples: &[f64], metric: &spec::EndToEnd, level: &str) -> Value {
    let s = sorted(samples.to_vec());
    let (q1, q2, q3) = quartiles(&s);
    json::obj(vec![
        ("unit", json::s(metric.unit)),
        ("better", json::s(metric.better.token())),
        ("bound", json::num(metric.bound)),
        ("level", json::s(level)),
        ("n", json::num(s.len() as f64)),
        ("median", json::num(q2)),
        ("q1", json::num(q1)),
        ("q3", json::num(q3)),
        ("samples", nums(samples)),
    ])
}

/// Every workload, end to end and traced; writes `results.json`.
pub fn full_run(args: &RunArgs) -> Result<u8, String> {
    ensure_at_root()?;
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for workload in WORKLOADS {
        // One sample list per metric: the reps of the single run, or one
        // median per run when several runs (seed, seed+1, …) were asked.
        let mut samples: Vec<(String, Vec<f64>)> = Vec::new();
        let mut fingerprints = Vec::new();
        let (mut attempted, mut failed, mut reps) = (0.0, 0.0, Vec::new());
        let mut notes = Vec::new();
        for i in 0..args.runs {
            let (detail, ok) = child_run(workload, args.seed + i as u64, args.seconds, false)?;
            all_correct &= ok;
            attempted += num_field(&detail, "attempted");
            failed += num_field(&detail, "failed");
            reps.push(num_field(&detail, "reps"));
            notes.extend(notes_of(&detail));
            if let Some(f) = detail.get("sim_fingerprint") {
                fingerprints.push(f.clone());
            }
            let Some(Value::Obj(fields)) = detail.get("samples") else {
                return Err(format!("the {workload} run recorded no samples"));
            };
            for (name, values) in fields {
                let values = read_nums(values);
                let values = if args.runs > 1 {
                    vec![median(&values)]
                } else {
                    values
                };
                match samples.iter_mut().find(|(n, _)| n == name) {
                    Some((_, all)) => all.extend(values),
                    None => samples.push((name.clone(), values)),
                }
            }
        }
        let (layers, ok) = child_run(workload, args.seed, args.seconds, true)?;
        all_correct &= ok;
        notes.extend(notes_of(&layers));

        let level = if args.runs > 1 { "run" } else { "rep" };
        let end_to_end: Vec<(&str, Value)> = samples
            .iter()
            .filter_map(|(name, values)| {
                let metric = spec::end_to_end(name)?;
                Some((metric.name, summary(values, metric, level)))
            })
            .collect();
        let per_layer: Vec<(&str, Value)> = PER_LAYER
            .iter()
            .map(|m| {
                let value = layers.get("layers").and_then(|l| l.get(m.name)).cloned();
                (
                    m.name,
                    json::obj(vec![
                        ("value", value.unwrap_or(Value::Null)),
                        ("unit", json::s(m.unit)),
                        ("better", json::s(m.better.token())),
                    ]),
                )
            })
            .collect();
        workloads.push((
            workload,
            json::obj(vec![
                ("correct", Value::Bool(notes.is_empty() && failed == 0.0)),
                ("attempted", json::num(attempted)),
                ("failed", json::num(failed)),
                (spec::FAILED_SHARE, json::num(failed / attempted.max(1.0))),
                ("notes", Value::Arr(notes)),
                ("sim_fingerprint", Value::Arr(fingerprints)),
                ("timed_reps", nums(&reps)),
                ("end_to_end", json::obj(end_to_end)),
                ("per_layer", json::obj(per_layer)),
                (
                    "trace_file",
                    json::s(format!("{OUT_DIR}/trace-{workload}.json")),
                ),
            ]),
        ));
    }

    let provenance = json::obj(vec![
        ("nproc", json::num(host::nproc() as f64)),
        ("rustc", json::s(host::rustc_version())),
        ("git_commit", json::s(host::git_commit())),
        ("seed", json::num(args.seed as f64)),
        ("seconds", json::num(args.seconds)),
        ("runs", json::num(args.runs as f64)),
        ("shards", json::num(spec::SHARDS as f64)),
        ("ga_threads", json::num(spec::GA_THREADS as f64)),
        ("ga_islands", json::num(spec::GA_ISLANDS as f64)),
        (
            "load_generator_threads",
            json::num(serve_live::senders() as f64),
        ),
    ]);
    let results = json::obj(vec![
        ("provenance", provenance),
        ("workloads", json::obj(workloads)),
    ]);
    let path = format!("{OUT_DIR}/results.json");
    std::fs::write(&path, results.to_pretty()).map_err(|e| format!("{path}: {e}"))?;
    println!("results: {path}");
    Ok(u8::from(!all_correct))
}
