//! `serve_sat`: saturation throughput of the live injection path, then
//! crash recovery from the write-ahead log the session just wrote.
//!
//! The 50 000 requests of `dispatch85` are rendered with
//! `write_request`, parsed back, and pushed through
//! `GridService::{open_live, ingest, drain, into_report}` in one thread,
//! closed loop, with the policy made cheap (FIFO) so the ingestion path
//! is a visible share of the wall. The WAL syncs `off`: the number is to
//! measure the program, not the sandbox disk.

use crate::batch::{fifo_with_agents, Batch, Inputs};
use crate::gate::{Completions, Gate};
use crate::run::{reps_for, untraced_base, EndToEndRun, Layers, RepLog};
use crate::trace::Tracer;
use agentgrid_serve::{
    parse_stream, write_request, GridService, ServeConfig, ServeReport, SyncPolicy, WalConfig,
};
use agentgrid_sim::SimTime;
use std::time::Instant;

/// The session's WAL, rewritten by every rep.
fn wal_path(out_dir: &str) -> String {
    format!("{out_dir}/serve_sat.wal")
}

fn config(inputs: Inputs, seed: u64, verify: bool, out_dir: &str) -> ServeConfig {
    ServeConfig {
        topology: inputs.topology,
        design: fifo_with_agents(),
        opts: inputs.opts,
        seed,
        verify,
        tune: None,
        wal: Some(WalConfig {
            path: wal_path(out_dir),
            sync: SyncPolicy::Off,
        }),
        record: None,
    }
}

/// The request stream as the JSONL text a client would send.
fn render_stream(inputs: &Inputs) -> String {
    let requests = inputs.workload.generate(&inputs.opts.catalog);
    let mut text = String::with_capacity(requests.len() * 96);
    for r in &requests {
        text.push_str(&write_request(r));
        text.push('\n');
    }
    text
}

fn check_report(gate: &mut Gate, what: &str, report: &ServeReport, lines: usize, replayed: u64) {
    gate.completions(
        what,
        Completions {
            requests: lines as u64,
            completed: report.completed as u64,
            rejected: report.result.rejected as u64,
            duplicates: 0,
        },
    );
    gate.require(
        report.injected == lines && report.skipped_lines == 0,
        || {
            format!(
                "{what}: {} of {lines} lines injected, {} skipped",
                report.injected, report.skipped_lines
            )
        },
    );
    let wal = report.wal.expect("served with a WAL");
    gate.require(
        wal.final_seq == lines as u64 && wal.replayed == replayed,
        || {
            format!(
                "{what}: wal seq {} / replayed {} (want {lines} / {replayed})",
                wal.final_seq, wal.replayed
            )
        },
    );
    gate.require(report.clean, || {
        format!(
            "{what}: invariant checker: {}",
            report.verify_report.as_deref().unwrap_or("")
        )
    });
}

/// Times of one rep, in seconds.
struct Rep {
    setup_s: f64,
    wall_s: f64,
    recovery_s: f64,
    json: String,
}

/// Remove the previous rep's log, so the session starts fresh.
fn reset_wal(out_dir: &str) -> Result<(), String> {
    match std::fs::remove_file(wal_path(out_dir)) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("cannot reset {}: {e}", wal_path(out_dir)))
        }
        _ => Ok(()),
    }
}

fn untraced_rep(seed: u64, out_dir: &str, gate: &mut Gate, rep: usize) -> Result<Rep, String> {
    let t = Instant::now();
    let inputs = Batch::Dispatch85.inputs(seed);
    let lines = parse_stream(&render_stream(&inputs), SimTime::ZERO)?;
    let cfg = config(inputs, seed, false, out_dir);
    reset_wal(out_dir)?;
    let mut svc = GridService::open_live(&cfg, false)?;
    let setup_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    svc.ingest(&lines)?;
    svc.drain()?;
    let wall_s = t.elapsed().as_secs_f64();
    let report = svc.into_report();
    check_report(gate, &format!("rep {rep}"), &report, lines.len(), 0);
    let json = report.result.to_json();

    // The crash: nothing of the session survives but its log.
    let t = Instant::now();
    let mut recovered = GridService::open_live(&cfg, false)?;
    let recovery_s = t.elapsed().as_secs_f64();
    recovered.drain()?;
    let report = recovered.into_report();
    check_report(
        gate,
        &format!("rep {rep} recovered"),
        &report,
        lines.len(),
        lines.len() as u64,
    );
    gate.identical(
        &format!("rep {rep}: recovered vs uninterrupted"),
        &json,
        &report.result.to_json(),
    );
    Ok(Rep {
        setup_s,
        wall_s,
        recovery_s,
        json,
    })
}

pub fn run(seed: u64, seconds: f64, out_dir: &str, gate: &mut Gate) -> Result<EndToEndRun, String> {
    let requests = Batch::Dispatch85.inputs(seed).workload.requests as f64;
    let mut log = RepLog::default();
    let mut error = None;
    let reps = reps_for(seconds, |rep, timed| {
        if error.is_some() {
            return;
        }
        match untraced_rep(seed, out_dir, gate, rep) {
            Ok(r) => {
                let values = [
                    ("setup_s", r.setup_s),
                    ("wall_s", r.wall_s),
                    ("requests_per_s", requests / r.wall_s),
                    ("recovery_s", r.recovery_s),
                ];
                log.record(gate, rep, timed, r.json, &values);
            }
            Err(e) => error = Some(e),
        }
    });
    match error {
        Some(e) => Err(e),
        None => Ok(log.finish(reps)),
    }
}

/// The traced run: untraced reps for the base, then one rep with a span
/// around every `GridService`/`serve::*` call and the strict invariant
/// checker attached.
pub fn run_traced(
    seed: u64,
    out_dir: &str,
    gate: &mut Gate,
    tracer: &mut Tracer,
) -> Result<Layers, String> {
    let (base_s, reference) = untraced_base(|rep| {
        let r = untraced_rep(seed, out_dir, gate, rep)?;
        Ok((r.wall_s, r.json))
    })?;

    let root = tracer.open("rep", None);
    let setup = tracer.open("setup", Some(root));
    let inputs = Batch::Dispatch85.inputs(seed);
    let text = tracer.time("serve.render_stream", setup, || render_stream(&inputs));
    let lines = tracer.time("serve.parse_stream", setup, || {
        parse_stream(&text, SimTime::ZERO)
    })?;
    let cfg = config(inputs, seed, true, out_dir);
    reset_wal(out_dir)?;
    let mut svc = tracer.time("serve.open_fresh", setup, || {
        GridService::open_live(&cfg, false)
    })?;
    tracer.close(setup);

    let wall = tracer.open("wall", Some(root));
    tracer.time("serve.ingest", wall, || svc.ingest(&lines))?;
    tracer.time("serve.drain", wall, || svc.drain())?;
    let wall_ns = tracer.close(wall);
    let report = tracer.time("serve.report", root, || svc.into_report());
    check_report(gate, "traced", &report, lines.len(), 0);
    gate.identical(
        "traced vs untraced result",
        &reference,
        &report.result.to_json(),
    );

    let mut recovered = tracer.time("serve.open_live", root, || {
        GridService::open_live(&cfg, false)
    })?;
    tracer.time("serve.recovered_drain", root, || recovered.drain())?;
    let report = recovered.into_report();
    tracer.close(root);
    check_report(
        gate,
        "traced recovered",
        &report,
        lines.len(),
        lines.len() as u64,
    );
    gate.identical(
        "traced recovered vs untraced result",
        &reference,
        &report.result.to_json(),
    );

    let mut layers = Layers::new();
    let covered = tracer.total("serve.ingest").ns + tracer.total("serve.drain").ns;
    layers.insert("trace.coverage", covered as f64 / wall_ns.max(1) as f64);
    layers.insert("trace.overhead", wall_ns as f64 / 1e9 / base_s);
    for (metric, span) in [
        ("serve.parse_stream_ns", "serve.parse_stream"),
        ("serve.ingest_ns", "serve.ingest"),
        ("serve.drain_ns", "serve.drain"),
        ("serve.report_ns", "serve.report"),
        ("serve.open_live_ns", "serve.open_live"),
    ] {
        layers.insert(metric, tracer.total(span).ns as f64);
    }
    layers.insert("core.requests", lines.len() as f64);
    layers.insert("core.completions", report.completed as f64);
    layers.insert("core.migrations", report.result.migrations as f64);
    layers.insert("agents.pull_messages", report.result.pull_messages as f64);
    Ok(layers)
}
