//! The grid service: one long-lived `GridSystem` + `Simulation` pair
//! driven by an input stream instead of a pre-generated batch workload.
//!
//! Three drive modes share the same grid, telemetry and finalisation:
//!
//! * [`GridService::fast_forward`] — the whole stream is known up front;
//!   requests bootstrap exactly as a batch run and scale directives
//!   become fault-timeline entries, so a pure request stream is
//!   *bit-identical* to `agentgrid run` on the same workload.
//! * [`GridService::run_scripted`] — deterministic mid-run injection:
//!   lines are injected into the running simulation the moment the event
//!   clock reaches them (via [`Simulation::peek_at`]), exercising the
//!   live-ingestion path without wall clocks. The fuzzer drives this.
//! * [`GridService::run_paced`] — real time: a reader thread feeds lines
//!   through a bounded [`AdmissionQueue`], the event loop parks on that
//!   queue until the next event's wall deadline (under a configurable
//!   time-dilation factor) or until a line, a `GET` or a shutdown wakes
//!   it, and an optional HTTP listener serves `/metrics`, `/status`,
//!   `POST /ingest` and `POST /shutdown`.
//!
//! # Durability (DESIGN.md §14)
//!
//! With a [`WalConfig`] attached, every accepted line is stamped with
//! its effective schedule instant and appended to the write-ahead log
//! *before* it is applied. On startup the log is replayed through the
//! ordinary scripted-injection path — the same `inject_request` /
//! `schedule_scale` calls, the same tuner ticks, the same telemetry
//! events — so the restored grid (results, engine clock, tuner level,
//! metrics) is bit-identical to a session that never crashed. Shutdown
//! from stdin EOF, SIGTERM and `POST /shutdown` all funnel through one
//! graceful drain that applies admitted lines, runs the simulation dry
//! and flushes the WAL.

use crate::admission::AdmissionQueue;
use crate::stream::{canonical_line, parse_line, stamp, ServeLine};
use crate::tuner::{Tuner, TunerConfig};
use crate::wal::{self, WalConfig, WalWriter};
use agentgrid::{
    collect_result, grid_config, queue_pool, ExperimentResult, Fault, GridEvent, GridSystem,
    RunOptions, ShardRunner,
};
use agentgrid_metrics::{compute_grid, MetricsReport, ResourceStats};
use agentgrid_sim::{SimDuration, SimTime, Simulation};
use agentgrid_telemetry::prometheus;
use agentgrid_telemetry::{
    AggregateRecorder, Event, InvariantRecorder, MultiRecorder, Recorder, Telemetry,
};
use agentgrid_workload::{ExperimentDesign, GridTopology};
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Admitted-but-unapplied lines the paced loop tolerates before the
/// HTTP path starts answering 429 (overridable via `PacedOptions`).
pub const DEFAULT_ADMISSION_CAPACITY: usize = 1024;

/// Everything needed to stand up a served grid.
pub struct ServeConfig {
    /// The grid topology to serve.
    pub topology: GridTopology,
    /// Policy/agents configuration (`number` is cosmetic here).
    pub design: ExperimentDesign,
    /// Run options: catalogue, GA tuning, advertisement strategy, noise.
    /// The `telemetry` field is ignored (the service owns its sinks) and
    /// `chaos` is extended with any scale directives from the stream.
    pub opts: RunOptions,
    /// Workload/grid RNG seed.
    pub seed: u64,
    /// Check behavioural invariants online over the served stream.
    pub verify: bool,
    /// Attach the online self-tuner.
    pub tune: Option<TunerConfig>,
    /// Write-ahead log: accepted lines are appended before they apply,
    /// and a log with history is replayed on startup (crash recovery).
    /// Live modes only; fast-forward bypasses the ingestion path.
    pub wal: Option<WalConfig>,
    /// Append every accepted line (canonically stamped) to this file,
    /// turning the session into a `--replay`able regression case.
    pub record: Option<String>,
}

/// Durability summary for a run served with a WAL attached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalSummary {
    /// Sequence number of the last record in the log.
    pub final_seq: u64,
    /// Epoch this session wrote at (recoveries so far).
    pub epoch: u64,
    /// Records replayed from the log at startup.
    pub replayed: u64,
    /// Torn-tail bytes discarded during recovery.
    pub truncated_bytes: u64,
}

/// What a finished serve run reports.
pub struct ServeReport {
    /// The batch-equivalent §3.3 metrics report.
    pub result: ExperimentResult,
    /// Requests accepted from the stream (replayed ones included).
    pub injected: usize,
    /// Tasks completed (exactly-once; excludes rejected).
    pub completed: usize,
    /// Scale directives applied.
    pub scale_directives: usize,
    /// Knob changes made by the tuner.
    pub tuner_adjustments: u64,
    /// Input lines that failed to parse or apply (paced mode skips bad
    /// lines instead of dying mid-serve; scripted/fast-forward error out).
    pub skipped_lines: usize,
    /// Lines refused by the bounded admission queue (HTTP 429s).
    pub ingest_rejected: u64,
    /// Write-ahead log summary (`None` when served without `--wal`).
    pub wal: Option<WalSummary>,
    /// The final Prometheus text exposition.
    pub metrics_text: String,
    /// The invariant checker's report (None when `verify` is off).
    pub verify_report: Option<String>,
    /// Telemetry events the checker examined (0 when `verify` is off).
    pub verify_events: u64,
    /// True when `verify` is off or the stream was violation-free.
    pub clean: bool,
}

/// Live ε/ῡ/β over everything completed so far, plus queue depths — the
/// serve-mode status line and `/status` endpoint body.
#[derive(Clone, Debug)]
pub struct LiveStatus {
    /// Current sim time, seconds.
    pub now_s: f64,
    /// ε — mean completion advance over deadline, seconds.
    pub epsilon_s: f64,
    /// ῡ — mean resource utilisation, percent.
    pub upsilon_pct: f64,
    /// β — load-balancing level, percent.
    pub beta_pct: f64,
    /// Tasks completed so far.
    pub completed: usize,
    /// Tasks queued (not started).
    pub queued: usize,
    /// Tasks submitted and unfinished.
    pub active: usize,
    /// Resources currently serving.
    pub online: usize,
    /// Agent-subtree shards the event loop runs over (DESIGN.md §13;
    /// 1 = sequential loop). Results never depend on this.
    pub shards: usize,
    /// Last WAL sequence number (0 without a WAL).
    pub wal_seq: u64,
    /// WAL records appended but not yet fsynced.
    pub wal_lag: u64,
    /// Lines admitted and waiting in the ingest queue.
    pub queue_depth: usize,
    /// Lines refused by admission control so far.
    pub rejected_total: u64,
}

impl LiveStatus {
    /// The one-line human form (`--status` stderr line).
    pub fn line(&self) -> String {
        format!(
            "t={:.1}s  ε={:+.1}s  ῡ={:.1}%  β={:.1}%  completed={} active={} queued={} \
             online={} shards={} ingest_q={} rejected={} wal_seq={} wal_lag={}",
            self.now_s,
            self.epsilon_s,
            self.upsilon_pct,
            self.beta_pct,
            self.completed,
            self.active,
            self.queued,
            self.online,
            self.shards,
            self.queue_depth,
            self.rejected_total,
            self.wal_seq,
            self.wal_lag
        )
    }

    /// The JSON form served at `/status`.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"now_s\": {:.6}, \"epsilon_s\": {:.6}, \"upsilon_pct\": {:.6}, ",
                "\"beta_pct\": {:.6}, \"completed\": {}, \"active\": {}, ",
                "\"queued\": {}, \"online\": {}, \"shards\": {}, ",
                "\"wal_seq\": {}, \"wal_lag\": {}, \"queue_depth\": {}, ",
                "\"rejected_total\": {}}}"
            ),
            self.now_s,
            self.epsilon_s,
            self.upsilon_pct,
            self.beta_pct,
            self.completed,
            self.active,
            self.queued,
            self.online,
            self.shards,
            self.wal_seq,
            self.wal_lag,
            self.queue_depth,
            self.rejected_total
        )
    }
}

/// Pacing knobs for [`GridService::run_paced`].
pub struct PacedOptions {
    /// Sim-seconds that elapse per wall-second (1.0 = real time; 60.0
    /// runs a simulated minute every second).
    pub speed: f64,
    /// Wall period between stderr status lines (zero disables them).
    pub status_every: Duration,
    /// The bounded admission queue shared with the HTTP listener; the
    /// loop creates a private one (default capacity) when `None`.
    pub admission: Option<Arc<AdmissionQueue>>,
}

impl Default for PacedOptions {
    fn default() -> PacedOptions {
        PacedOptions {
            speed: 1.0,
            status_every: Duration::from_secs(2),
            admission: None,
        }
    }
}

/// Longest the paced loop parks without looking at the SIGTERM flag. A
/// signal handler may only set its atomic — it cannot notify the
/// admission queue's condvar — so this one poll survives; every other
/// reason to run (a line, a `GET`, `POST /shutdown`, stdin EOF) wakes
/// the loop directly.
const SIGTERM_POLL: Duration = Duration::from_millis(20);

/// SIGTERM → graceful drain, std-only: `signal(2)` is in every libc the
/// platform links anyway, and the handler only flips an atomic.
#[cfg(unix)]
mod sigterm {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERM: AtomicBool = AtomicBool::new(false);
    const SIGTERM: i32 = 15;

    extern "C" fn on_term(_sig: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub fn install() {
        unsafe {
            signal(SIGTERM, on_term as *const () as usize);
        }
    }

    pub fn triggered() -> bool {
        TERM.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sigterm {
    pub fn install() {}
    pub fn triggered() -> bool {
        false
    }
}

/// A long-lived grid with its simulation, telemetry sinks and tuner.
pub struct GridService {
    topology: GridTopology,
    design: ExperimentDesign,
    grid: GridSystem,
    sim: Simulation<GridEvent>,
    runner: ShardRunner,
    telemetry: Telemetry,
    agg: Arc<AggregateRecorder>,
    checker: Option<Arc<InvariantRecorder>>,
    tuner: Option<Tuner>,
    /// Infrastructure telemetry (WAL appends/replays, ingest rejections)
    /// goes to its own recorder, like the shard-sync channel: the main
    /// stream must stay bit-identical between a recovered session and an
    /// uninterrupted one, and `wal_replay` vs `wal_append` counts differ
    /// by construction.
    infra: Arc<AggregateRecorder>,
    infra_telemetry: Telemetry,
    wal: Option<WalWriter>,
    record: Option<std::fs::File>,
    admission: Option<Arc<AdmissionQueue>>,
    wal_replayed: u64,
    wal_truncated: u64,
    injected: usize,
    scale_directives: usize,
    skipped_lines: usize,
}

impl GridService {
    /// Stand up the grid. `arm_recovery` decides whether the chaos
    /// recovery machinery exists from boot (the live modes always arm it
    /// — directives can arrive at any time — while fast-forward arms it
    /// only when the stream actually scales, keeping pure request
    /// streams on the exact chaos-free batch configuration).
    /// `chaotic_check` picks the invariant checker's tolerance and is
    /// decided from the *stream content*, not from the arming: a
    /// scripted stream with no directives is still held to the strict
    /// invariants. `plan_scales` pre-resolves known directives into the
    /// fault timeline (fast-forward); live modes pass none and inject.
    fn new(
        cfg: &ServeConfig,
        arm_recovery: bool,
        plan_scales: &[ServeLine],
        chaotic_check: bool,
    ) -> GridService {
        let mut opts = cfg.opts.clone();
        if arm_recovery {
            opts.chaos = opts.chaos.with_recovery();
        }
        for l in plan_scales {
            if let ServeLine::Scale { at, resource, up } = l {
                let fault = if *up {
                    Fault::ScaleUp {
                        resource: resource.clone(),
                    }
                } else {
                    Fault::ScaleDown {
                        resource: resource.clone(),
                    }
                };
                opts.chaos = opts.chaos.with_event(*at, fault);
            }
        }

        let agg = Arc::new(AggregateRecorder::new());
        let checker = cfg.verify.then(|| {
            Arc::new(if chaotic_check {
                InvariantRecorder::chaos()
            } else {
                InvariantRecorder::strict()
            })
        });
        let mut sinks: Vec<Arc<dyn Recorder>> = vec![agg.clone()];
        if let Some(c) = &checker {
            sinks.push(c.clone());
        }
        let telemetry = Telemetry::new(Arc::new(MultiRecorder::new(sinks)));
        opts.telemetry = telemetry.clone();
        let infra = Arc::new(AggregateRecorder::new());
        let infra_telemetry = Telemetry::new(infra.clone());

        let config = grid_config(&cfg.design, cfg.seed, &opts);
        let grid = GridSystem::new(&cfg.topology, &opts.catalog, &config);
        // Recycled queue: a service restarted in-process (the fuzzer,
        // sweeps) reuses the previous run's wheel allocations.
        let mut sim = Simulation::with_queue(queue_pool::take());
        sim.set_telemetry(telemetry.clone());
        if let Some(limit) = opts.step_limit {
            sim.set_step_limit(limit);
        }
        let tuner = cfg
            .tune
            .map(|t| Tuner::new(t, cfg.topology.resources.len(), &grid));
        GridService {
            topology: cfg.topology.clone(),
            design: cfg.design,
            grid,
            sim,
            runner: ShardRunner::new(opts.shards, opts.shard_workers),
            telemetry,
            agg,
            checker,
            tuner,
            infra,
            infra_telemetry,
            wal: None,
            record: None,
            admission: None,
            wal_replayed: 0,
            wal_truncated: 0,
            injected: 0,
            scale_directives: 0,
            skipped_lines: 0,
        }
    }

    /// Serve a fully-known stream as fast as the simulator runs. A
    /// stream without scale directives reproduces `agentgrid run` on the
    /// same requests bit-for-bit. Incompatible with `--wal`: requests
    /// bootstrap batch-style here, bypassing the ingestion path the log
    /// replays through.
    pub fn fast_forward(cfg: &ServeConfig, lines: &[ServeLine]) -> Result<ServeReport, String> {
        if cfg.wal.is_some() {
            return Err("--wal needs a live drive mode (drop --fast-forward)".to_string());
        }
        let scales = lines.iter().any(|l| matches!(l, ServeLine::Scale { .. }));
        let chaotic = scales || !cfg.opts.chaos.is_noop();
        let mut svc = GridService::new(cfg, scales, lines, chaotic);
        svc.open_record(cfg)?;
        if let Some(f) = &mut svc.record {
            for l in lines {
                writeln!(f, "{}", canonical_line(l)).map_err(|e| format!("record append: {e}"))?;
            }
        }
        let requests: Vec<_> = lines
            .iter()
            .filter_map(|l| match l {
                ServeLine::Request(r) => Some(r.clone()),
                ServeLine::Scale { .. } => {
                    svc.scale_directives += 1;
                    None
                }
            })
            .collect();
        svc.injected = requests.len();
        svc.grid.bootstrap(&mut svc.sim, requests);
        while svc.pump(None) > 0 {}
        svc.check_step_limit()?;
        Ok(svc.into_report())
    }

    /// Serve a fully-known stream through the *live* injection path:
    /// each line enters the running simulation exactly when the event
    /// clock reaches its instant. Deterministic (no wall clock), so the
    /// fuzzer can shrink failures through it. With a WAL attached, an
    /// existing log replays first and the given lines continue it.
    pub fn run_scripted(cfg: &ServeConfig, lines: &[ServeLine]) -> Result<ServeReport, String> {
        let scales = lines.iter().any(|l| matches!(l, ServeLine::Scale { .. }));
        let chaotic = scales || !cfg.opts.chaos.is_noop();
        let mut svc = GridService::open_live(cfg, chaotic)?;
        let mut lines = lines.to_vec();
        // Stable by instant: same-instant lines keep stream order, which
        // is also the order a WAL of this session will hold them in.
        lines.sort_by_key(ServeLine::at);
        svc.ingest(&lines)?;
        svc.drain()?;
        Ok(svc.into_report())
    }

    /// Replay a recorded session (or raw WAL) in *file order* — the
    /// order the original session accepted the lines in, which is what
    /// keeps request indices (and so task identities) identical to the
    /// session being reproduced. Strict: a line that fails to apply
    /// fails the replay, as a regression case should.
    pub fn run_replay(cfg: &ServeConfig, lines: &[ServeLine]) -> Result<ServeReport, String> {
        let scales = lines.iter().any(|l| matches!(l, ServeLine::Scale { .. }));
        let chaotic = scales || !cfg.opts.chaos.is_noop();
        let mut svc = GridService::open_live(cfg, chaotic)?;
        svc.ingest(lines)?;
        svc.drain()?;
        Ok(svc.into_report())
    }

    /// Boot a live-mode service: arm recovery, bootstrap an empty grid,
    /// open the recording and the WAL — and, when the WAL already holds
    /// records, replay them through the ordinary ingestion path so the
    /// restored grid is bit-identical to a session that never stopped.
    /// `chaotic_check` relaxes the invariant checker for streams that
    /// scale (the replayed prefix counts too).
    pub fn open_live(cfg: &ServeConfig, chaotic_check: bool) -> Result<GridService, String> {
        let recovery = match &cfg.wal {
            Some(w) => wal::read_wal(&w.path).map_err(|e| format!("wal {}: {e}", w.path))?,
            None => wal::WalRecovery::default(),
        };
        let mut replay_lines = Vec::new();
        for rec in &recovery.records {
            // Canonical records always carry tick-exact instants, so the
            // default_at is never consulted.
            match parse_line(&rec.line, SimTime::ZERO) {
                Ok(Some(l)) => replay_lines.push(l),
                Ok(None) => {}
                Err(e) => return Err(format!("wal record {}: {e}", rec.seq)),
            }
        }
        let chaotic = chaotic_check
            || !cfg.opts.chaos.is_noop()
            || replay_lines
                .iter()
                .any(|l| matches!(l, ServeLine::Scale { .. }));
        let mut svc = GridService::new(cfg, true, &[], chaotic);
        svc.grid.bootstrap(&mut svc.sim, Vec::new());
        svc.open_record(cfg)?;
        if let Some(w) = &cfg.wal {
            let writer = WalWriter::resume(&w.path, w.sync, &recovery)
                .map_err(|e| format!("wal {}: {e}", w.path))?;
            let epoch = writer.epoch();
            svc.wal = Some(writer);
            if !recovery.is_fresh() {
                svc.replay(&replay_lines)?;
                svc.wal_replayed = recovery.records.len() as u64;
                svc.wal_truncated = recovery.truncated_bytes;
                let (records, last_seq, truncated_bytes) = (
                    recovery.records.len() as u64,
                    recovery.last_seq(),
                    recovery.truncated_bytes,
                );
                svc.infra_telemetry
                    .emit(svc.sim.now().ticks(), || Event::WalReplay {
                        records,
                        last_seq,
                        epoch,
                        truncated_bytes,
                    });
            }
        }
        Ok(svc)
    }

    fn open_record(&mut self, cfg: &ServeConfig) -> Result<(), String> {
        if let Some(path) = &cfg.record {
            let f = std::fs::OpenOptions::new()
                .append(true)
                .create(true)
                .open(path)
                .map_err(|e| format!("record {path}: {e}"))?;
            self.record = Some(f);
        }
        Ok(())
    }

    /// Ingest new lines through the scripted discipline: each line is
    /// accepted (stamped → logged → applied) once the event clock
    /// reaches its instant. Lines must already be in application order.
    pub fn ingest(&mut self, lines: &[ServeLine]) -> Result<(), String> {
        self.scripted_loop(lines, false)
    }

    /// Replay recovered lines through the same discipline, but apply
    /// only (they are already in the log) and skip lines that no longer
    /// apply — exactly what the live session did when it accepted them.
    fn replay(&mut self, lines: &[ServeLine]) -> Result<(), String> {
        self.scripted_loop(lines, true)
    }

    fn scripted_loop(&mut self, lines: &[ServeLine], replaying: bool) -> Result<(), String> {
        let mut next = 0;
        while next < lines.len() {
            let due = lines[next].at();
            let inject = match self.sim.peek_at() {
                Some(n) => due <= n,
                None => true,
            };
            if inject {
                if replaying {
                    if let Err(e) = self.apply_line(&lines[next]) {
                        eprintln!("serve: wal replay skipping line: {e}");
                        self.skipped_lines += 1;
                    }
                } else {
                    self.accept_line(&lines[next])?;
                }
                next += 1;
            } else {
                self.pump(Some(due));
                if self.sim.step_limit_reached() {
                    return Err("serve exceeded the step limit (possible livelock)".to_string());
                }
            }
        }
        Ok(())
    }

    /// Run the simulation dry and flush the WAL — the tail end of every
    /// drive mode and of the crash-recovery harness.
    pub fn drain(&mut self) -> Result<(), String> {
        while self.pump(None) > 0 {}
        self.check_step_limit()?;
        self.flush_wal()
    }

    /// Serve live: read JSONL lines from `input` on a background thread
    /// into the bounded admission queue, pace the event clock against
    /// the wall clock at `paced.speed` sim-seconds per second, and drain
    /// gracefully on stdin EOF (when no listener holds the service
    /// open), SIGTERM or `POST /shutdown` — one unified path that
    /// applies admitted lines, flushes telemetry and the WAL. Bad lines
    /// are reported to stderr and skipped — a long-running service must
    /// not die on a typo.
    pub fn run_paced(
        cfg: &ServeConfig,
        input: impl BufRead + Send + 'static,
        paced: PacedOptions,
        shared: Option<Arc<crate::http::ServeShared>>,
    ) -> Result<ServeReport, String> {
        if !(paced.speed.is_finite() && paced.speed > 0.0) {
            return Err("--speed must be a positive number".to_string());
        }
        let mut svc = GridService::open_live(cfg, true)?;
        let admission = paced
            .admission
            .unwrap_or_else(|| Arc::new(AdmissionQueue::new(DEFAULT_ADMISSION_CAPACITY)));
        svc.admission = Some(admission.clone());
        sigterm::install();

        let stdin_done = Arc::new(AtomicBool::new(false));
        let reader = {
            let admission = admission.clone();
            let stdin_done = stdin_done.clone();
            std::thread::spawn(move || {
                for line in input.lines() {
                    match line {
                        Ok(l) => {
                            if !admission.push_blocking("stdin", l) {
                                break; // draining
                            }
                        }
                        Err(e) => {
                            eprintln!("serve: input read error: {e}");
                            break;
                        }
                    }
                }
                stdin_done.store(true, Ordering::Release);
                admission.wake(); // EOF may be what ends the session
            })
        };

        // A recovered session's clock starts where the log left it; the
        // wall epoch maps onto sim time from that base, so replayed work
        // is not re-waited for.
        let base = svc.sim.now();
        let epoch = Instant::now();
        let wall_to_sim = |elapsed: Duration| {
            base + SimDuration::from_secs_f64(elapsed.as_secs_f64() * paced.speed)
        };
        let mut last_status = Instant::now();
        let mut rejected_seen = 0u64;
        loop {
            if sigterm::triggered() || shared.as_ref().is_some_and(|s| s.shutdown_requested()) {
                break; // graceful drain below
            }
            // Accept every line currently admitted from stdin + network.
            while let Some((_client, raw)) = admission.pop() {
                // A live line with no explicit instant arrives "now" in
                // paced sim time.
                let arrival = wall_to_sim(epoch.elapsed()).max(svc.sim.now());
                svc.accept_raw(&raw, arrival);
            }
            // Backpressure rejections surface on the infra channel.
            let rejected = admission.rejected_total();
            if rejected > rejected_seen {
                let lines = rejected - rejected_seen;
                rejected_seen = rejected;
                let queue_depth = admission.depth() as u64;
                svc.infra_telemetry
                    .emit(svc.sim.now().ticks(), || Event::IngestRejected {
                        lines,
                        queue_depth,
                    });
            }

            match svc.sim.peek_at() {
                Some(t) => {
                    let due = Duration::from_secs_f64(
                        (t.as_secs_f64() - base.as_secs_f64()).max(0.0) / paced.speed,
                    );
                    let elapsed = epoch.elapsed();
                    if elapsed >= due {
                        // Everything at or before the wall watermark is
                        // due; deliver one event or one batch window
                        // within it (`max(t)` guards float rounding).
                        let watermark = wall_to_sim(elapsed).max(t) + SimDuration::from_ticks(1);
                        svc.pump(Some(watermark));
                    } else {
                        admission.wait((due - elapsed).min(SIGTERM_POLL));
                    }
                }
                None => {
                    // Without a listener, stdin EOF ends the session; a
                    // listener holds it open for /ingest until /shutdown
                    // or SIGTERM.
                    if stdin_done.load(Ordering::Acquire)
                        && shared.is_none()
                        && admission.depth() == 0
                    {
                        break;
                    }
                    admission.wait(SIGTERM_POLL);
                }
            }

            let publish =
                !paced.status_every.is_zero() && last_status.elapsed() >= paced.status_every;
            if publish {
                last_status = Instant::now();
                let status = svc.live_status();
                eprintln!("serve: {}", status.line());
            }
            if let Some(shared) = &shared {
                if publish || shared.wants_refresh() {
                    let status = svc.live_status();
                    shared.publish(svc.render_metrics(&status), status.to_json());
                }
            }
        }

        svc.graceful_drain(&admission, wall_to_sim(epoch.elapsed()))?;
        if stdin_done.load(Ordering::Acquire) {
            let _ = reader.join();
        }
        // else: the reader is parked on a live stdin; it exits on the
        // next line (push_blocking sees the closed queue) or with us.
        let report = svc.into_report();
        if let Some(shared) = &shared {
            // The final numbers; whoever spawned the listener stops it.
            shared.publish(report.metrics_text.clone(), String::new());
        }
        if let Some(w) = &report.wal {
            eprintln!(
                "serve: drained; wal seq {} (epoch {}, {} replayed)",
                w.final_seq, w.epoch, w.replayed
            );
        }
        Ok(report)
    }

    /// The unified shutdown path: close admissions, apply what was
    /// already admitted, run the simulation dry, flush the WAL.
    fn graceful_drain(
        &mut self,
        admission: &AdmissionQueue,
        arrival_floor: SimTime,
    ) -> Result<(), String> {
        admission.close();
        while let Some((_client, raw)) = admission.pop() {
            let arrival = arrival_floor.max(self.sim.now());
            self.accept_raw(&raw, arrival);
        }
        self.drain()
    }

    /// Parse and accept one raw paced-mode line, skipping (with a stderr
    /// note) anything that does not parse or apply.
    fn accept_raw(&mut self, raw: &str, arrival: SimTime) {
        match parse_line(raw, arrival) {
            Ok(Some(l)) => {
                if let Err(e) = self.accept_line(&l) {
                    eprintln!("serve: skipping line: {e}");
                    self.skipped_lines += 1;
                }
            }
            Ok(None) => {}
            Err(e) => {
                eprintln!("serve: skipping line: {e}");
                self.skipped_lines += 1;
            }
        }
    }

    /// Accept one new line: stamp it with its effective schedule instant
    /// (`at := max(at, now)`), append it to the WAL and the recording
    /// *before* it applies, then inject it. The stamped form is what
    /// both files hold, so replay schedules the same event at the same
    /// tick this call does.
    fn accept_line(&mut self, line: &ServeLine) -> Result<(), String> {
        let stamped = stamp(line, self.sim.now());
        let text = canonical_line(&stamped);
        if let Some(w) = &mut self.wal {
            let (seq, bytes) = w.append(&text).map_err(|e| format!("wal append: {e}"))?;
            let epoch = w.epoch();
            self.infra_telemetry
                .emit(self.sim.now().ticks(), || Event::WalAppend {
                    seq,
                    epoch,
                    bytes,
                });
        }
        if let Some(f) = &mut self.record {
            writeln!(f, "{text}").map_err(|e| format!("record append: {e}"))?;
        }
        self.apply_line(&stamped)
    }

    /// Inject one parsed line into the running grid.
    fn apply_line(&mut self, line: &ServeLine) -> Result<(), String> {
        match line {
            ServeLine::Request(r) => {
                self.grid.inject_request(&mut self.sim, r)?;
                self.injected += 1;
            }
            ServeLine::Scale { at, resource, up } => {
                self.grid
                    .schedule_scale(&mut self.sim, resource, *up, *at)?;
                self.scale_directives += 1;
            }
        }
        Ok(())
    }

    /// Deliver the next event — or one shard batch window — bounded by
    /// `before`, then give the tuner its per-event tick. Batching stays
    /// off while a tuner is attached: the tuner may move knobs (pull
    /// period, ACT TTL) between any two events, which the batch
    /// commuting argument does not cover.
    fn pump(&mut self, before: Option<SimTime>) -> usize {
        let allow_batch = self.tuner.is_none();
        let n = self
            .runner
            .pump(&mut self.grid, &mut self.sim, before, allow_batch);
        if n > 0 {
            self.tune();
        }
        n
    }

    fn tune(&mut self) {
        if let Some(t) = &mut self.tuner {
            t.tick(self.sim.now(), &mut self.grid, &self.telemetry);
        }
    }

    fn check_step_limit(&self) -> Result<(), String> {
        if self.sim.step_limit_reached() {
            return Err("serve exceeded the step limit (possible livelock)".to_string());
        }
        Ok(())
    }

    fn flush_wal(&mut self) -> Result<(), String> {
        match &mut self.wal {
            Some(w) => w.flush().map_err(|e| format!("wal flush: {e}")),
            None => Ok(()),
        }
    }

    /// Records replayed from the WAL at startup (crash recovery).
    pub fn wal_replayed(&self) -> u64 {
        self.wal_replayed
    }

    /// Sequence number of the last WAL record (0 without a WAL).
    pub fn wal_seq(&self) -> u64 {
        self.wal.as_ref().map_or(0, WalWriter::seq)
    }

    /// Snapshot of the infrastructure telemetry channel (WAL appends and
    /// replays, ingest rejections) — kept off the main stream so
    /// recovered and uninterrupted sessions stay bit-identical there.
    pub fn infra_snapshot(&self) -> agentgrid_telemetry::Aggregate {
        self.infra.snapshot()
    }

    /// Live ε/ῡ/β over the work completed so far, observed at `now`.
    fn live_status(&self) -> LiveStatus {
        let now = self.sim.now();
        let horizon = now.max(SimTime::from_ticks(1));
        let stats: Vec<ResourceStats> = self
            .topology
            .resources
            .iter()
            .map(|spec| {
                let s = self
                    .grid
                    .scheduler(&spec.name)
                    .expect("scheduler per topology resource");
                ResourceStats::from_run(
                    &spec.name,
                    spec.nproc,
                    s.resource().allocations(),
                    s.completed(),
                    horizon,
                )
            })
            .collect();
        let total: MetricsReport = compute_grid(&stats, horizon.as_secs_f64().max(1e-9));
        let online = self
            .topology
            .resources
            .iter()
            .filter(|r| self.grid.resource_online(&r.name) == Some(true))
            .count();
        LiveStatus {
            now_s: now.as_secs_f64(),
            epsilon_s: total.advance_s,
            upsilon_pct: total.utilisation_pct,
            beta_pct: total.balance_pct,
            completed: total.tasks,
            queued: self.grid.queued_tasks(),
            active: self.grid.active_tasks(),
            online,
            shards: self.runner.shards(),
            wal_seq: self.wal_seq(),
            wal_lag: self.wal.as_ref().map_or(0, WalWriter::lag),
            queue_depth: self.admission.as_ref().map_or(0, |a| a.depth()),
            rejected_total: self.admission.as_ref().map_or(0, |a| a.rejected_total()),
        }
    }

    /// Render the Prometheus exposition with the live gauges appended.
    fn render_metrics(&self, status: &LiveStatus) -> String {
        prometheus::render(
            &self.agg.snapshot(),
            &[
                (
                    "agentgrid_epsilon_advance_seconds",
                    "Mean completion advance over deadline (paper eq. 11).",
                    status.epsilon_s,
                ),
                (
                    "agentgrid_upsilon_utilisation_percent",
                    "Mean resource utilisation (paper eqs. 12-13).",
                    status.upsilon_pct,
                ),
                (
                    "agentgrid_beta_balance_percent",
                    "Load-balancing level (paper eqs. 14-15).",
                    status.beta_pct,
                ),
                (
                    "agentgrid_completed_tasks",
                    "Tasks completed exactly once.",
                    status.completed as f64,
                ),
                (
                    "agentgrid_active_tasks",
                    "Tasks submitted and not yet complete.",
                    status.active as f64,
                ),
                (
                    "agentgrid_queued_tasks",
                    "Tasks waiting in scheduler queues.",
                    status.queued as f64,
                ),
                (
                    "agentgrid_resources_online",
                    "Resources currently serving (not crashed or scaled down).",
                    status.online as f64,
                ),
                (
                    "agentgrid_sim_now_seconds",
                    "Current simulation time.",
                    status.now_s,
                ),
                (
                    "agentgrid_wal_seq",
                    "Sequence number of the last write-ahead-log record.",
                    status.wal_seq as f64,
                ),
                (
                    "agentgrid_wal_lag_records",
                    "WAL records appended but not yet fsynced.",
                    status.wal_lag as f64,
                ),
                (
                    "agentgrid_ingest_queue_depth",
                    "Lines admitted and waiting in the ingest queue.",
                    status.queue_depth as f64,
                ),
                (
                    "agentgrid_ingest_rejected_total",
                    "Lines refused by admission control (HTTP 429).",
                    status.rejected_total as f64,
                ),
            ],
        )
    }

    /// Emit the final horizon, flush telemetry and assemble the report.
    pub fn into_report(self) -> ServeReport {
        debug_assert!(
            !self.grid.work_remains(),
            "serve ended with work outstanding"
        );
        let final_now = self.sim.now().ticks();
        self.telemetry.emit(final_now, || Event::EngineHorizon {
            horizon: self.grid.horizon().ticks(),
        });
        // The tuner's final state is part of the served record even if
        // the last interval never elapsed.
        self.telemetry.flush();
        self.infra_telemetry.flush();
        let result = collect_result(&self.design, &self.topology, &self.grid, self.injected);
        let status = self.live_status();
        let metrics_text = self.render_metrics(&status);
        let (verify_report, verify_events, clean) = match &self.checker {
            None => (None, 0, true),
            Some(c) => (
                Some(c.report().trim_end().to_string()),
                c.events_seen(),
                c.is_clean(),
            ),
        };
        let wal_summary = self.wal.as_ref().map(|w| WalSummary {
            final_seq: w.seq(),
            epoch: w.epoch(),
            replayed: self.wal_replayed,
            truncated_bytes: self.wal_truncated,
        });
        let report = ServeReport {
            result,
            injected: self.injected,
            completed: self.grid.completed_tasks(),
            scale_directives: self.scale_directives,
            tuner_adjustments: self.tuner.as_ref().map_or(0, Tuner::adjustments),
            skipped_lines: self.skipped_lines,
            ingest_rejected: self.admission.as_ref().map_or(0, |a| a.rejected_total()),
            wal: wal_summary,
            metrics_text,
            verify_report,
            verify_events,
            clean,
        };
        queue_pool::give(self.sim);
        report
    }
}
