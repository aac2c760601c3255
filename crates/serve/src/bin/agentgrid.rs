//! The `agentgrid` command-line interface.
//!
//! ```text
//! agentgrid table3 [--requests N] [--seed S] [--verify]  # the paper's case study
//! agentgrid run [--policy fifo|ga|batch|minmin|maxmin|sufferage|anneal]
//!               [--agents] [--topology SPEC]
//!               [--requests N] [--seed S] [--noise SIGMA] [--json]
//!               [--trace FILE] [--trace-format jsonl|chrome] [--verify]
//! agentgrid serve [--fast-forward | --speed X] [--listen ADDR] [--tune]
//!                 [--wal FILE] [--wal-sync always|batch|off]
//!                 [--record FILE] [--replay FILE]
//!                 [--input FILE] [--metrics-out FILE] [--verify] [--json]
//! agentgrid report TRACE                            # summarise a recorded trace
//! agentgrid topology SPEC                           # inspect a topology
//! agentgrid models                                  # print the Table 1 catalogue
//! ```
//!
//! Topology specs: `case-study` (default), `flat:<resources>:<nproc>`,
//! `tree:<levels>:<branching>:<nproc>`.

use agentgrid::prelude::*;
use agentgrid_serve::{
    parse_stream, read_recording, spawn_listener, write_meta, AdmissionQueue, GridService,
    PacedOptions, RecordMeta, ServeConfig, ServeReport, ServeShared, SyncPolicy, TunerConfig,
    WalConfig, DEFAULT_ADMISSION_CAPACITY,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if command == "report" {
        // `report` takes a positional trace path, not flags.
        let Some(path) = args.get(1) else {
            eprintln!("error: report needs a trace file\n\n{USAGE}");
            return ExitCode::FAILURE;
        };
        return cmd_report(path);
    }
    let flags = Flags::parse(&args[1..]);
    match (command.as_str(), flags) {
        (_, Err(e)) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
        ("table3", Ok(flags)) => cmd_table3(&flags),
        ("run", Ok(flags)) => cmd_run(&flags),
        ("serve", Ok(flags)) => cmd_serve(&flags),
        ("topology", Ok(flags)) => cmd_topology(&flags),
        ("models", Ok(_)) => cmd_models(),
        (other, Ok(_)) => {
            eprintln!("error: unknown command `{other}`\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
agentgrid — agent-based grid load balancing (Cao et al., IPPS 2003)

USAGE:
  agentgrid table3   [--requests N] [--seed S] [--json] [--verify]
  agentgrid run      [--policy fifo|ga|batch|minmin|maxmin|sufferage|anneal]
                     [--matchmaker freetime|auction] [--agents] [--topology SPEC]
                     [--requests N] [--seed S] [--noise SIGMA] [--json]
                     [--ga-threads N] [--ga-islands N] [--shards N] [--verify]
                     [--trace FILE] [--trace-format jsonl|chrome]
  agentgrid serve    [--fast-forward | --speed X] [--listen ADDR] [--tune]
                     [--wal FILE] [--wal-sync always|batch|off]
                     [--record FILE] [--replay FILE]
                     [--input FILE] [--metrics-out FILE] [--json] [--verify]
                     [--policy fifo|ga|batch|minmin|maxmin|sufferage|anneal]
                     [--agents] [--topology SPEC]
                     [--seed S] [--noise SIGMA] [--shards N]
  agentgrid report   TRACE
  agentgrid topology [--topology SPEC]
  agentgrid models

SERVE MODE:
  reads JSONL request/scale lines from stdin (or --input FILE) into a
  live grid; see DESIGN.md §12 for the line format
  --fast-forward          drain the whole stream at simulator speed
                          (bit-identical to `run` on the same requests)
  --speed X               paced mode: X sim-seconds per wall-second
                          (default 1.0)
  --listen ADDR           HTTP listener (GET /metrics Prometheus text,
                          GET /status, POST /ingest JSONL, POST /shutdown
                          for a graceful drain); port 0 picks a free
                          port, printed to stderr; ingest overflow gets
                          429 + Retry-After, malformed batches a 400
                          naming the offending line
  --tune                  online self-tuner: adapts the GA budget, pull
                          period and ACT TTL to queue backlog, every
                          change emitted as telemetry
  --metrics-out FILE      write the final Prometheus exposition to FILE

DURABILITY (DESIGN.md §14):
  --wal FILE              write-ahead log: every accepted line is logged
                          before it applies; restarting with the same
                          FILE replays the log and resumes bit-identical
                          to an uninterrupted session (live modes only)
  --wal-sync POLICY       fsync cadence: always (every record), batch
                          (every 64 records and on flush; default), off
  --record FILE           append every accepted line (canonically
                          stamped, with a session header) to FILE — a
                          deterministic regression case for --replay
  --replay FILE           re-run a --record file (or a raw WAL) at
                          simulator speed in original acceptance order;
                          the header restores topology/seed/policy flags

VERIFICATION:
  --verify                check behavioural invariants online during the run
                          (exactly-once completion, freetime soundness, GA
                          solution legitimacy); violations go to stderr and
                          the exit code turns non-zero

SCHEDULING:
  --ga-threads N          OS threads for GA fitness evaluation (default 1,
                          or the GA_THREADS environment variable); results
                          are bit-identical for any thread count
  --ga-islands N          evolve N deterministic subpopulations with
                          periodic best-individual migration (default 1,
                          or the GA_ISLANDS environment variable); island
                          count changes the search, thread count never does
  --shards N              partition the agent tree into N contiguous
                          subtree shards and run advertisement-pull
                          windows on worker threads (default 1, or the
                          SHARDS environment variable); results and
                          telemetry are bit-identical for any shard or
                          thread count (DESIGN.md §13)

TOPOLOGY SPECS:
  case-study              the paper's 12-resource grid (default)
  flat:<n>:<nproc>        n identical resources under the first
  tree:<levels>:<b>:<np>  complete b-ary agent tree

TRACING:
  --trace FILE            record a structured event trace of the run
  --trace-format jsonl    one JSON event per line (default; `report` input)
  --trace-format chrome   Chrome trace_event JSON (open in Perfetto)";

#[derive(Clone, Copy, PartialEq, Eq)]
enum TraceFormat {
    Jsonl,
    Chrome,
}

struct Flags {
    requests: Option<usize>,
    seed: u64,
    policy: LocalPolicy,
    matchmaker: MatchmakerKind,
    agents: bool,
    topology: String,
    noise: f64,
    json: bool,
    ga_threads: Option<usize>,
    ga_islands: Option<usize>,
    shards: Option<usize>,
    trace: Option<String>,
    trace_format: TraceFormat,
    verify: bool,
    // serve-only flags
    fast_forward: bool,
    speed: f64,
    listen: Option<String>,
    tune: bool,
    input: Option<String>,
    metrics_out: Option<String>,
    wal: Option<String>,
    wal_sync: SyncPolicy,
    record: Option<String>,
    replay: Option<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Flags {
            requests: None,
            seed: 2003,
            policy: LocalPolicy::Ga,
            matchmaker: MatchmakerKind::Freetime,
            agents: false,
            topology: "case-study".to_string(),
            noise: 0.0,
            json: false,
            // The environment gives defaults; the flags below override.
            ga_threads: env_count("GA_THREADS").map(|n| n.min(64)),
            ga_islands: env_count("GA_ISLANDS").map(|n| n.min(64)),
            shards: env_count("SHARDS"),
            trace: None,
            trace_format: TraceFormat::Jsonl,
            verify: false,
            fast_forward: false,
            speed: 1.0,
            listen: None,
            tune: false,
            input: None,
            metrics_out: None,
            wal: None,
            wal_sync: SyncPolicy::Batch,
            record: None,
            replay: None,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            match arg.as_str() {
                "--requests" => {
                    flags.requests = Some(value("--requests")?.parse().map_err(|e| format!("{e}"))?)
                }
                "--seed" => flags.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
                "--noise" => flags.noise = value("--noise")?.parse().map_err(|e| format!("{e}"))?,
                "--topology" => flags.topology = value("--topology")?,
                "--policy" => flags.policy = parse_policy(&value("--policy")?)?,
                "--matchmaker" => {
                    let name = value("--matchmaker")?;
                    flags.matchmaker = MatchmakerKind::parse(&name)
                        .ok_or_else(|| format!("unknown matchmaker `{name}`"))?;
                }
                "--agents" => flags.agents = true,
                "--json" => flags.json = true,
                "--ga-threads" => {
                    let n: usize = value("--ga-threads")?.parse().map_err(|e| format!("{e}"))?;
                    if n == 0 {
                        return Err("--ga-threads must be at least 1".to_string());
                    }
                    flags.ga_threads = Some(n);
                }
                "--ga-islands" => {
                    let n: usize = value("--ga-islands")?.parse().map_err(|e| format!("{e}"))?;
                    if n == 0 {
                        return Err("--ga-islands must be at least 1".to_string());
                    }
                    flags.ga_islands = Some(n);
                }
                "--shards" => {
                    let n: usize = value("--shards")?.parse().map_err(|e| format!("{e}"))?;
                    if n == 0 {
                        return Err("--shards must be at least 1".to_string());
                    }
                    flags.shards = Some(n);
                }
                "--verify" => flags.verify = true,
                "--trace" => flags.trace = Some(value("--trace")?),
                "--trace-format" => {
                    flags.trace_format = match value("--trace-format")?.as_str() {
                        "jsonl" => TraceFormat::Jsonl,
                        "chrome" => TraceFormat::Chrome,
                        other => return Err(format!("unknown trace format `{other}`")),
                    }
                }
                "--fast-forward" => flags.fast_forward = true,
                "--speed" => flags.speed = value("--speed")?.parse().map_err(|e| format!("{e}"))?,
                "--listen" => flags.listen = Some(value("--listen")?),
                "--tune" => flags.tune = true,
                "--input" => flags.input = Some(value("--input")?),
                "--metrics-out" => flags.metrics_out = Some(value("--metrics-out")?),
                "--wal" => flags.wal = Some(value("--wal")?),
                "--wal-sync" => flags.wal_sync = SyncPolicy::parse(&value("--wal-sync")?)?,
                "--record" => flags.record = Some(value("--record")?),
                "--replay" => flags.replay = Some(value("--replay")?),
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(flags)
    }

    fn topology(&self) -> Result<GridTopology, String> {
        GridTopology::from_spec(&self.topology)
    }

    fn workload(&self, topology: &GridTopology, default_requests: usize) -> WorkloadConfig {
        WorkloadConfig {
            requests: self.requests.unwrap_or(default_requests),
            interarrival: SimDuration::from_secs(1),
            seed: self.seed,
            agents: topology.names(),
            environment: ExecEnv::Test,
        }
    }

    fn options(&self) -> RunOptions {
        let mut opts = RunOptions::paper();
        if self.noise > 0.0 {
            opts.noise = NoiseModel::LogNormal { sigma: self.noise };
        }
        if let Some(threads) = self.ga_threads {
            opts.ga.threads = threads;
        }
        if let Some(islands) = self.ga_islands {
            opts.ga.islands = islands;
        }
        if let Some(shards) = self.shards {
            opts.shards = shards;
        }
        opts.matchmaker = self.matchmaker;
        opts
    }
}

/// The online checker for `--verify` runs. CLI runs are chaos-free, so
/// the strict mode applies. Returns `true` when the stream was clean
/// (always true when `--verify` is off); the report goes to stderr so
/// `--json` output stays parseable.
fn verify_verdict(checker: Option<&InvariantRecorder>) -> bool {
    match checker {
        None => true,
        Some(c) => {
            eprintln!("{}", c.report().trim_end());
            c.is_clean()
        }
    }
}

fn exit_for(clean: bool) -> ExitCode {
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_table3(flags: &Flags) -> ExitCode {
    let topology = GridTopology::case_study();
    let workload = flags.workload(&topology, 600);
    let mut opts = flags.options();
    let checker = flags
        .verify
        .then(|| std::sync::Arc::new(InvariantRecorder::strict()));
    if let Some(c) = &checker {
        opts.telemetry = Telemetry::new(c.clone());
    }
    let results = run_table3(&topology, &workload, &opts);
    if flags.json {
        println!("{}", results.to_json());
    } else {
        print!("{}", results.table3());
    }
    exit_for(verify_verdict(checker.as_deref()))
}

fn cmd_run(flags: &Flags) -> ExitCode {
    let topology = match flags.topology() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let workload = flags.workload(&topology, topology.resources.len() * 10);
    let design = ExperimentDesign {
        number: 0,
        local_policy: flags.policy,
        agents_enabled: flags.agents,
    };
    let mut opts = flags.options();
    let ring = flags
        .trace
        .as_ref()
        .map(|_| std::sync::Arc::new(RingRecorder::unbounded()));
    let checker = flags
        .verify
        .then(|| std::sync::Arc::new(InvariantRecorder::strict()));
    let mut sinks: Vec<std::sync::Arc<dyn Recorder>> = Vec::new();
    if let Some(r) = &ring {
        sinks.push(r.clone());
    }
    if let Some(c) = &checker {
        sinks.push(c.clone());
    }
    opts.telemetry = match sinks.len() {
        0 => Telemetry::disabled(),
        1 => Telemetry::new(sinks.pop().expect("one sink")),
        _ => Telemetry::new(std::sync::Arc::new(MultiRecorder::new(sinks))),
    };
    let result = run_experiment(&design, &topology, &workload, &opts);
    if let (Some(path), Some(ring)) = (&flags.trace, &ring) {
        let events = ring.snapshot();
        let text = match flags.trace_format {
            TraceFormat::Jsonl => write_jsonl(&events),
            TraceFormat::Chrome => write_chrome(&events),
        };
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("error: cannot write trace to {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("trace: {} events -> {path}", events.len());
    }
    if flags.json {
        println!("{}", result.to_json());
        return exit_for(verify_verdict(checker.as_deref()));
    }
    println!("{}", design.label());
    println!(
        "{} tasks over {} resources, horizon {:.0}s",
        result.total.tasks,
        result.per_resource.len(),
        result.horizon_s
    );
    for row in &result.per_resource {
        println!(
            "  {:<8} e {:>8.1}s  u {:>5.1}%  b {:>5.1}%  ({} tasks)",
            row.name,
            row.metrics.advance_s,
            row.metrics.utilisation_pct,
            row.metrics.balance_pct,
            row.metrics.tasks
        );
    }
    println!(
        "  {:<8} e {:>8.1}s  u {:>5.1}%  b {:>5.1}%  ({}/{} deadlines met, {} migrations)",
        "total",
        result.total.advance_s,
        result.total.utilisation_pct,
        result.total.balance_pct,
        result.total.deadlines_met,
        result.total.tasks,
        result.migrations
    );
    exit_for(verify_verdict(checker.as_deref()))
}

fn policy_name(p: LocalPolicy) -> &'static str {
    p.token()
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

fn parse_policy(name: &str) -> Result<LocalPolicy, String> {
    LocalPolicy::parse(name).ok_or_else(|| format!("unknown policy `{name}`"))
}

fn cmd_serve(flags: &Flags) -> ExitCode {
    if flags.replay.is_some() {
        for (set, what) in [
            (flags.wal.is_some(), "--wal"),
            (flags.fast_forward, "--fast-forward"),
            (flags.input.is_some(), "--input"),
            (flags.record.is_some(), "--record"),
        ] {
            if set {
                eprintln!("error: --replay re-runs a finished session; {what} does not apply");
                return ExitCode::FAILURE;
            }
        }
        return cmd_serve_replay(flags);
    }
    if flags.wal.is_some() && flags.fast_forward {
        eprintln!("error: --wal needs a live drive mode (drop --fast-forward)");
        return ExitCode::FAILURE;
    }
    let topology = match flags.topology() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // A new recording opens with a self-describing header; appending to
    // an existing recording keeps the original header.
    if let Some(path) = &flags.record {
        let header_needed = std::fs::metadata(path).map_or(true, |m| m.len() == 0);
        if header_needed {
            let meta = write_meta(&RecordMeta {
                topology: flags.topology.clone(),
                seed: flags.seed,
                policy: policy_name(flags.policy).to_string(),
                agents: flags.agents,
                noise: flags.noise,
                tune: flags.tune,
            });
            if let Err(e) = std::fs::write(path, format!("{meta}\n")) {
                eprintln!("error: cannot write record header to {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let cfg = ServeConfig {
        topology,
        design: ExperimentDesign {
            number: 0,
            local_policy: flags.policy,
            agents_enabled: flags.agents,
        },
        opts: flags.options(),
        seed: flags.seed,
        verify: flags.verify,
        tune: flags.tune.then(TunerConfig::default),
        wal: flags.wal.clone().map(|path| WalConfig {
            path,
            sync: flags.wal_sync,
        }),
        record: flags.record.clone(),
    };

    let outcome = if flags.fast_forward {
        let text = match &flags.input {
            Some(path) => match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            None => {
                let mut t = String::new();
                use std::io::Read;
                if let Err(e) = std::io::stdin().read_to_string(&mut t) {
                    eprintln!("error: cannot read stdin: {e}");
                    return ExitCode::FAILURE;
                }
                t
            }
        };
        parse_stream(&text, SimTime::ZERO).and_then(|lines| GridService::fast_forward(&cfg, &lines))
    } else {
        let admission = std::sync::Arc::new(AdmissionQueue::new(DEFAULT_ADMISSION_CAPACITY));
        let listener = match &flags.listen {
            Some(addr) => {
                let shared = ServeShared::new(admission.clone());
                match spawn_listener(addr, shared.clone()) {
                    Ok((local, handle)) => {
                        eprintln!("serve: listening on {local}");
                        Some((shared, handle))
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            None => None,
        };
        let shared = listener.as_ref().map(|(shared, _)| shared.clone());
        let paced = PacedOptions {
            speed: flags.speed,
            admission: Some(admission),
            ..PacedOptions::default()
        };
        let result = match &flags.input {
            Some(path) => match std::fs::File::open(path) {
                Ok(f) => GridService::run_paced(&cfg, std::io::BufReader::new(f), paced, shared),
                Err(e) => {
                    eprintln!("error: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            None => GridService::run_paced(
                &cfg,
                std::io::BufReader::new(std::io::stdin()),
                paced,
                shared,
            ),
        };
        // On every outcome, a failed start-up or drain included: the
        // listener is blocked in `accept` and only `shutdown` ends it.
        if let Some((shared, handle)) = listener {
            shared.shutdown();
            let _ = handle.join();
        }
        result
    };

    let report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &flags.metrics_out {
        if let Err(e) = std::fs::write(path, &report.metrics_text) {
            eprintln!("error: cannot write metrics to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    print_serve_report(flags, &report);
    if let Some(text) = &report.verify_report {
        eprintln!("{text}");
    }
    exit_for(report.clean && report.skipped_lines == 0)
}

/// `serve --replay FILE`: re-run a recorded session (or a raw WAL) at
/// simulator speed, in the order the original session accepted the
/// lines. The recording header, when present, restores the original
/// topology/seed/policy flags; explicit CLI flags for a headerless file.
fn cmd_serve_replay(flags: &Flags) -> ExitCode {
    let path = flags.replay.as_deref().expect("checked by caller");
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (meta, lines) = match read_recording(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (topology_spec, seed, policy, agents, noise, tune) = match &meta {
        Some(m) => {
            let policy = match parse_policy(&m.policy) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("error: {path} header: {e}");
                    return ExitCode::FAILURE;
                }
            };
            (
                m.topology.clone(),
                m.seed,
                policy,
                m.agents,
                m.noise,
                m.tune,
            )
        }
        None => (
            flags.topology.clone(),
            flags.seed,
            flags.policy,
            flags.agents,
            flags.noise,
            flags.tune,
        ),
    };
    let topology = match GridTopology::from_spec(&topology_spec) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut opts = flags.options();
    if noise > 0.0 {
        opts.noise = NoiseModel::LogNormal { sigma: noise };
    }
    let cfg = ServeConfig {
        topology,
        design: ExperimentDesign {
            number: 0,
            local_policy: policy,
            agents_enabled: agents,
        },
        opts,
        seed,
        verify: flags.verify,
        tune: tune.then(TunerConfig::default),
        wal: None,
        record: None,
    };
    eprintln!("serve: replaying {} lines from {path}", lines.len());
    let report = match GridService::run_replay(&cfg, &lines) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(out) = &flags.metrics_out {
        if let Err(e) = std::fs::write(out, &report.metrics_text) {
            eprintln!("error: cannot write metrics to {out}: {e}");
            return ExitCode::FAILURE;
        }
    }
    print_serve_report(flags, &report);
    if let Some(text) = &report.verify_report {
        eprintln!("{text}");
    }
    exit_for(report.clean && report.skipped_lines == 0)
}

fn print_serve_report(flags: &Flags, report: &ServeReport) {
    if flags.json {
        println!("{}", report.result.to_json());
        return;
    }
    let r = &report.result;
    println!(
        "served {} requests ({} completed, {} rejected), {} scale directives, horizon {:.0}s",
        report.injected, report.completed, r.rejected, report.scale_directives, r.horizon_s
    );
    println!(
        "  e {:+.1}s  u {:.1}%  b {:.1}%  ({}/{} deadlines met, {} migrations)",
        r.total.advance_s,
        r.total.utilisation_pct,
        r.total.balance_pct,
        r.total.deadlines_met,
        r.total.tasks,
        r.migrations
    );
    if report.tuner_adjustments > 0 {
        println!("  tuner: {} knob adjustments", report.tuner_adjustments);
    }
    if let Some(w) = &report.wal {
        println!(
            "  wal: seq {} (epoch {}, {} replayed, {} torn bytes dropped)",
            w.final_seq, w.epoch, w.replayed, w.truncated_bytes
        );
    }
    if report.ingest_rejected > 0 {
        println!(
            "  backpressure: {} lines rejected by admission control",
            report.ingest_rejected
        );
    }
    if report.skipped_lines > 0 {
        println!("  skipped {} malformed input lines", report.skipped_lines);
    }
}

fn cmd_report(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let events = match read_trace(&text) {
        Ok(ev) => ev,
        Err(e) => {
            eprintln!("error: cannot parse {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{} events", events.len());
    print!("{}", Aggregate::from_events(&events).render());
    ExitCode::SUCCESS
}

fn cmd_topology(flags: &Flags) -> ExitCode {
    let topology = match flags.topology() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{} resources, {} nodes",
        topology.resources.len(),
        topology.total_nodes()
    );
    for r in &topology.resources {
        println!(
            "  {:<8} {:<18} x{:<3} {}",
            r.name,
            r.platform.name,
            r.nproc,
            r.parent
                .as_deref()
                .map(|p| format!("under {p}"))
                .unwrap_or_else(|| "HEAD".to_string())
        );
    }
    ExitCode::SUCCESS
}

fn cmd_models() -> ExitCode {
    let catalog = Catalog::case_study();
    let engine = PaceEngine::new();
    let sgi = ResourceModel::new(Platform::sgi_origin2000(), 16).expect("16 nodes");
    println!("{} case-study application models:", catalog.len());
    for app in catalog.apps() {
        let (k, t) = engine.best_time(app, &sgi);
        let (lo, hi) = app.deadline_bounds_s;
        println!(
            "  {:<10} deadline [{lo:>4}, {hi:>4}]s  best {t:>4.0}s on {k:>2} reference nodes",
            app.name
        );
    }
    ExitCode::SUCCESS
}
