//! The structured event vocabulary.
//!
//! Events carry their own primitive payloads (ids, names, microsecond
//! ticks) rather than simulation types, so this crate sits below every
//! other agentgrid crate and can be recorded from any layer. One tick
//! equals one microsecond of simulated time, matching `SimTime`.

use crate::json::{self, Value};

/// Microseconds of simulated time.
pub type Micros = u64;

/// One structured occurrence inside the system.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A task entered a resource's scheduler queue.
    TaskSubmit {
        /// Task id.
        task: u64,
        /// Resource whose queue accepted it.
        resource: String,
        /// Absolute deadline, in ticks.
        deadline: Micros,
    },
    /// Discovery moved a task from one agent to another for execution.
    TaskDispatch {
        /// Task id.
        task: u64,
        /// Agent that gave the task up.
        from: String,
        /// Agent that received it.
        to: String,
        /// Discovery hops consumed when the dispatch happened.
        hops: u32,
    },
    /// A task began executing on cluster nodes.
    TaskStart {
        /// Task id.
        task: u64,
        /// Executing resource.
        resource: String,
        /// Number of nodes allocated.
        nodes: u32,
        /// Ticks spent queued between submit and start.
        queue_wait: Micros,
    },
    /// A task finished executing.
    TaskFinish {
        /// Task id.
        task: u64,
        /// Executing resource.
        resource: String,
        /// Whether it completed by its deadline.
        deadline_met: bool,
    },
    /// A task completed after its deadline.
    TaskDeadlineMiss {
        /// Task id.
        task: u64,
        /// Executing resource.
        resource: String,
        /// Ticks past the deadline at completion.
        late: Micros,
    },
    /// A completion event reached a scheduler at an instant other than
    /// the completion its running task announced when it started — a
    /// stale completion of an earlier incarnation processed as real.
    /// Never emitted by a correct run; the invariant checker flags it.
    CompletionMisfire {
        /// Task id.
        task: u64,
        /// Executing resource.
        resource: String,
        /// The completion instant the running task announced, in ticks.
        announced: Micros,
    },
    /// Discovery gave up on a task (no capable resource found).
    TaskReject {
        /// Task id.
        task: u64,
        /// Agent at which the search ended.
        resource: String,
    },
    /// One GA generation finished on a resource's scheduler.
    GaGeneration {
        /// Resource running the GA.
        resource: String,
        /// Generation index within this evolve call (0-based).
        generation: u32,
        /// Best cost in the population after this generation.
        best_cost: f64,
        /// Mean cost over the population after this generation.
        mean_cost: f64,
    },
    /// One complete GA evolve call (a scheduling event's worth of search).
    GaEvolve {
        /// Resource running the GA.
        resource: String,
        /// Generations actually run (stall cut-off included).
        generations: u32,
        /// Final best cost.
        best_cost: f64,
        /// Whether the stall cut-off fired before the generation budget.
        converged: bool,
        /// Host wall-clock microseconds spent in the call.
        wall_us: u64,
        /// Evaluation-cache hits during the call.
        cache_hits: u64,
        /// Evaluation-cache misses during the call.
        cache_misses: u64,
    },
    /// Hot-path performance counters for one GA evolve call: how fast
    /// the fitness loop ran and which optimisations carried it. All
    /// payloads are observations — they never feed back into scheduling.
    GaHotPath {
        /// Resource running the GA.
        resource: String,
        /// Evaluation threads in force for the call.
        threads: u32,
        /// Population fitness evaluations performed.
        evaluations: u64,
        /// Evaluations per wall-clock second (host time).
        evals_per_sec: f64,
        /// Evaluations that recycled a warm decode scratch.
        scratch_reuses: u64,
        /// Cache hits served lock-free from the dense fast table.
        fast_hits: u64,
        /// Mean fraction of worker slots doing useful work, `[0, 1]`.
        pool_utilisation: f64,
        /// Island subpopulations evolved in parallel (1 = single
        /// population).
        islands: u32,
        /// Solution-string positions actually decoded by the delta
        /// evaluator; `evaluations × tasks` when delta is off, less when
        /// prefix resumes and memo copies kicked in.
        delta_positions: u64,
    },
    /// The evaluation cache missed and consulted the PACE engine.
    CacheEvaluate {
        /// Application model id.
        app: u32,
        /// Platform id.
        platform: u32,
        /// Processor count evaluated.
        nprocs: u32,
        /// Predicted execution time, seconds.
        predicted_s: f64,
    },
    /// Service information moved between agents (ACT maintenance).
    Advertise {
        /// Agent whose information moved.
        agent: String,
        /// Agent whose coordination table was updated.
        to: String,
        /// True for data-push, false for data-pull.
        push: bool,
    },
    /// An agent evaluated the discovery decision for a task.
    Discovery {
        /// Task id.
        task: u64,
        /// Deciding agent.
        agent: String,
        /// Outcome: `local`, `dispatch`, `escalate` or `reject`.
        decision: String,
        /// Hops consumed so far (this decision included).
        hops: u32,
    },
    /// A discovery request escalated to the parent agent.
    EscalationHop {
        /// Task id.
        task: u64,
        /// Child agent that escalated.
        from: String,
        /// Parent agent that received the request.
        to: String,
    },
    /// An execution backend launched a task (test-mode log or real
    /// threads).
    ExecutorLaunch {
        /// Task id.
        task: u64,
        /// Execution environment (`mpi`, `pvm`, `test`).
        env: String,
        /// Predicted duration, seconds.
        duration_s: f64,
    },
    /// A grid resource (and its agent) crashed: queued and running work
    /// is lost, the agent stops advertising and answering discovery.
    AgentDown {
        /// The crashed resource.
        resource: String,
    },
    /// A previously crashed resource restarted with empty queues and a
    /// cleared capability table.
    AgentUp {
        /// The restarted resource.
        resource: String,
    },
    /// An agent-to-agent message was lost (crashed endpoint, dropped
    /// link, or random advertisement loss).
    MsgDropped {
        /// Sending agent.
        from: String,
        /// Intended receiver.
        to: String,
        /// What was lost: `pull`, `advert`, `dispatch` or `request`.
        what: String,
    },
    /// A task lost in a crash was re-submitted from its origin agent.
    TaskRecovered {
        /// Task id.
        task: u64,
        /// Resource the recovered task was re-placed on.
        resource: String,
        /// Ticks between the loss and this re-placement.
        latency: Micros,
    },
    /// Dispatch retries for a task exhausted their budget; the failure
    /// policy decides its fate.
    RetryExhausted {
        /// Task id.
        task: u64,
        /// Origin agent where the retries ended.
        resource: String,
        /// Attempts made.
        attempts: u32,
    },
    /// A scheduler sampled its advertised freetime (eq. 7's φ) right
    /// after absorbing a submit. Emitted for invariant checking: the
    /// sample must never precede its own instant or the committed
    /// ledger makespan.
    FreetimeSample {
        /// Resource whose freetime was sampled.
        resource: String,
        /// Advertised freetime φ, ticks (absolute).
        freetime: Micros,
        /// Committed ledger makespan at the sample, ticks (absolute).
        committed: Micros,
    },
    /// Legitimacy verdict on the solution a GA evolve call committed
    /// to: the ordering must be a permutation and every task's node
    /// mask non-empty within the resource's processor count.
    GaSolutionCheck {
        /// Resource running the GA.
        resource: String,
        /// Tasks in the optimisation set.
        tasks: u32,
        /// Whether the committed solution passed the legitimacy check.
        legit: bool,
    },
    /// A planned elasticity directive was applied to a resource: a
    /// scale-down (graceful leave: queued work re-placed, running work
    /// allowed to finish) or a scale-up (rejoin with empty queues).
    /// Always followed by the matching `AgentDown`/`AgentUp` event.
    ScaleDirective {
        /// The resource leaving or joining.
        resource: String,
        /// `true` for scale-up (join), `false` for scale-down (leave).
        up: bool,
        /// Queued tasks displaced by a scale-down (0 for scale-up).
        drained: u32,
    },
    /// The online tuner adjusted a runtime parameter in response to
    /// observed load (the monitoring→analysis→tuning loop).
    TunerAdjust {
        /// Which knob moved: `ga_generations`, `pull_period_us` or
        /// `act_ttl_us` (0 meaning "no TTL").
        parameter: String,
        /// Value before the adjustment.
        from: u64,
        /// Value after the adjustment.
        to: u64,
        /// Why: `backlog-high` or `backlog-low`.
        trigger: String,
    },
    /// Periodic progress marker from the simulation engine.
    EngineStep {
        /// Events processed so far.
        processed: u64,
        /// Events still queued.
        pending: u64,
    },
    /// The simulation reached its horizon (end of run).
    EngineHorizon {
        /// Final simulated time, ticks.
        horizon: Micros,
    },
    /// One accepted ingestion line was appended to the serve-mode
    /// write-ahead log (before being applied to the grid). Emitted on
    /// the serve loop's dedicated infrastructure channel so the main
    /// stream stays bit-identical between a live run and its replay.
    WalAppend {
        /// Sequence number of the appended record (1-based, monotonic
        /// across process restarts).
        seq: u64,
        /// Drive-mode epoch: 0 for a fresh log, +1 per crash recovery.
        epoch: u64,
        /// Encoded record size on disk, bytes (newline included).
        bytes: u64,
    },
    /// A write-ahead log was replayed through the ordinary ingestion
    /// path at startup (crash recovery). One summary event per
    /// recovery, on the infrastructure channel.
    WalReplay {
        /// Complete records recovered and re-applied.
        records: u64,
        /// Highest sequence number recovered.
        last_seq: u64,
        /// Epoch the resumed log continues at.
        epoch: u64,
        /// Torn-tail bytes discarded past the last complete record.
        truncated_bytes: u64,
    },
    /// The bounded ingest admission queue refused lines (backpressure:
    /// the HTTP path answered `429 Too Many Requests`). Aggregated by
    /// the serve loop; emitted on the infrastructure channel.
    IngestRejected {
        /// Lines refused since the previous event.
        lines: u64,
        /// Queue depth observed when the rejection was noticed.
        queue_depth: u64,
    },
    /// One merge-barrier window of the sharded simulation: a batch of
    /// commuting events executed across shard workers and re-delivered
    /// in sequential order. Emitted on a dedicated sync channel so the
    /// main stream stays identical across shard counts.
    ShardSync {
        /// Barrier window index (0-based, monotonic per run).
        window: u64,
        /// Configured shard count.
        shards: u32,
        /// Events executed in this window.
        batched: u64,
        /// Events landing on the busiest shard of the window.
        busiest: u64,
    },
}

/// An [`Event`] plus the simulated instant it was recorded at.
#[derive(Clone, Debug, PartialEq)]
pub struct TimedEvent {
    /// Simulated time, microseconds.
    pub t: Micros,
    /// What happened.
    pub event: Event,
}

impl Event {
    /// Stable snake_case tag identifying the variant; used as the JSON
    /// `type` field and as the counter key in aggregation.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::TaskSubmit { .. } => "task_submit",
            Event::TaskDispatch { .. } => "task_dispatch",
            Event::TaskStart { .. } => "task_start",
            Event::TaskFinish { .. } => "task_finish",
            Event::TaskDeadlineMiss { .. } => "task_deadline_miss",
            Event::CompletionMisfire { .. } => "completion_misfire",
            Event::TaskReject { .. } => "task_reject",
            Event::GaGeneration { .. } => "ga_generation",
            Event::GaEvolve { .. } => "ga_evolve",
            Event::GaHotPath { .. } => "ga_hot_path",
            Event::CacheEvaluate { .. } => "cache_evaluate",
            Event::Advertise { .. } => "advertise",
            Event::Discovery { .. } => "discovery",
            Event::EscalationHop { .. } => "escalation_hop",
            Event::ExecutorLaunch { .. } => "executor_launch",
            Event::AgentDown { .. } => "agent_down",
            Event::AgentUp { .. } => "agent_up",
            Event::MsgDropped { .. } => "msg_dropped",
            Event::TaskRecovered { .. } => "task_recovered",
            Event::RetryExhausted { .. } => "retry_exhausted",
            Event::FreetimeSample { .. } => "freetime_sample",
            Event::GaSolutionCheck { .. } => "ga_solution_check",
            Event::ScaleDirective { .. } => "scale_directive",
            Event::TunerAdjust { .. } => "tuner_adjust",
            Event::EngineStep { .. } => "engine_step",
            Event::EngineHorizon { .. } => "engine_horizon",
            Event::ShardSync { .. } => "shard_sync",
            Event::WalAppend { .. } => "wal_append",
            Event::WalReplay { .. } => "wal_replay",
            Event::IngestRejected { .. } => "ingest_rejected",
        }
    }

    /// The track a visual trace viewer should file this event under:
    /// the resource/agent name where one applies, else a subsystem name.
    pub fn track(&self) -> &str {
        match self {
            Event::TaskSubmit { resource, .. }
            | Event::TaskStart { resource, .. }
            | Event::TaskFinish { resource, .. }
            | Event::TaskDeadlineMiss { resource, .. }
            | Event::CompletionMisfire { resource, .. }
            | Event::TaskReject { resource, .. }
            | Event::GaGeneration { resource, .. }
            | Event::GaEvolve { resource, .. }
            | Event::GaHotPath { resource, .. }
            | Event::AgentDown { resource }
            | Event::AgentUp { resource }
            | Event::TaskRecovered { resource, .. }
            | Event::RetryExhausted { resource, .. }
            | Event::FreetimeSample { resource, .. }
            | Event::GaSolutionCheck { resource, .. }
            | Event::ScaleDirective { resource, .. } => resource,
            Event::TunerAdjust { .. } => "tuner",
            Event::MsgDropped { to, .. } => to,
            Event::TaskDispatch { to, .. } => to,
            Event::Advertise { to, .. } => to,
            Event::Discovery { agent, .. } => agent,
            Event::EscalationHop { to, .. } => to,
            Event::CacheEvaluate { .. } => "pace-cache",
            Event::ExecutorLaunch { .. } => "executor",
            Event::EngineStep { .. } | Event::EngineHorizon { .. } | Event::ShardSync { .. } => {
                "engine"
            }
            Event::WalAppend { .. } | Event::WalReplay { .. } => "wal",
            Event::IngestRejected { .. } => "ingest",
        }
    }
}

impl TimedEvent {
    /// JSON object form: `{"t": ..., "type": ..., <payload fields>}`.
    pub fn to_json(&self) -> Value {
        let mut fields: Vec<(String, Value)> = vec![
            ("t".to_string(), json::num(self.t as f64)),
            ("type".to_string(), json::s(self.event.kind())),
        ];
        let mut push = |k: &str, v: Value| fields.push((k.to_string(), v));
        match &self.event {
            Event::TaskSubmit {
                task,
                resource,
                deadline,
            } => {
                push("task", json::num(*task as f64));
                push("resource", json::s(resource.clone()));
                push("deadline", json::num(*deadline as f64));
            }
            Event::TaskDispatch {
                task,
                from,
                to,
                hops,
            } => {
                push("task", json::num(*task as f64));
                push("from", json::s(from.clone()));
                push("to", json::s(to.clone()));
                push("hops", json::num(f64::from(*hops)));
            }
            Event::TaskStart {
                task,
                resource,
                nodes,
                queue_wait,
            } => {
                push("task", json::num(*task as f64));
                push("resource", json::s(resource.clone()));
                push("nodes", json::num(f64::from(*nodes)));
                push("queue_wait", json::num(*queue_wait as f64));
            }
            Event::TaskFinish {
                task,
                resource,
                deadline_met,
            } => {
                push("task", json::num(*task as f64));
                push("resource", json::s(resource.clone()));
                push("deadline_met", Value::Bool(*deadline_met));
            }
            Event::TaskDeadlineMiss {
                task,
                resource,
                late,
            } => {
                push("task", json::num(*task as f64));
                push("resource", json::s(resource.clone()));
                push("late", json::num(*late as f64));
            }
            Event::CompletionMisfire {
                task,
                resource,
                announced,
            } => {
                push("task", json::num(*task as f64));
                push("resource", json::s(resource.clone()));
                push("announced", json::num(*announced as f64));
            }
            Event::TaskReject { task, resource } => {
                push("task", json::num(*task as f64));
                push("resource", json::s(resource.clone()));
            }
            Event::GaGeneration {
                resource,
                generation,
                best_cost,
                mean_cost,
            } => {
                push("resource", json::s(resource.clone()));
                push("generation", json::num(f64::from(*generation)));
                push("best_cost", json::num(*best_cost));
                push("mean_cost", json::num(*mean_cost));
            }
            Event::GaEvolve {
                resource,
                generations,
                best_cost,
                converged,
                wall_us,
                cache_hits,
                cache_misses,
            } => {
                push("resource", json::s(resource.clone()));
                push("generations", json::num(f64::from(*generations)));
                push("best_cost", json::num(*best_cost));
                push("converged", Value::Bool(*converged));
                push("wall_us", json::num(*wall_us as f64));
                push("cache_hits", json::num(*cache_hits as f64));
                push("cache_misses", json::num(*cache_misses as f64));
            }
            Event::GaHotPath {
                resource,
                threads,
                evaluations,
                evals_per_sec,
                scratch_reuses,
                fast_hits,
                pool_utilisation,
                islands,
                delta_positions,
            } => {
                push("resource", json::s(resource.clone()));
                push("threads", json::num(f64::from(*threads)));
                push("evaluations", json::num(*evaluations as f64));
                push("evals_per_sec", json::num(*evals_per_sec));
                push("scratch_reuses", json::num(*scratch_reuses as f64));
                push("fast_hits", json::num(*fast_hits as f64));
                push("pool_utilisation", json::num(*pool_utilisation));
                push("islands", json::num(f64::from(*islands)));
                push("delta_positions", json::num(*delta_positions as f64));
            }
            Event::CacheEvaluate {
                app,
                platform,
                nprocs,
                predicted_s,
            } => {
                push("app", json::num(f64::from(*app)));
                push("platform", json::num(f64::from(*platform)));
                push("nprocs", json::num(f64::from(*nprocs)));
                push("predicted_s", json::num(*predicted_s));
            }
            Event::Advertise { agent, to, push: p } => {
                push("agent", json::s(agent.clone()));
                push("to", json::s(to.clone()));
                push("push", Value::Bool(*p));
            }
            Event::Discovery {
                task,
                agent,
                decision,
                hops,
            } => {
                push("task", json::num(*task as f64));
                push("agent", json::s(agent.clone()));
                push("decision", json::s(decision.clone()));
                push("hops", json::num(f64::from(*hops)));
            }
            Event::EscalationHop { task, from, to } => {
                push("task", json::num(*task as f64));
                push("from", json::s(from.clone()));
                push("to", json::s(to.clone()));
            }
            Event::ExecutorLaunch {
                task,
                env,
                duration_s,
            } => {
                push("task", json::num(*task as f64));
                push("env", json::s(env.clone()));
                push("duration_s", json::num(*duration_s));
            }
            Event::AgentDown { resource } => {
                push("resource", json::s(resource.clone()));
            }
            Event::AgentUp { resource } => {
                push("resource", json::s(resource.clone()));
            }
            Event::MsgDropped { from, to, what } => {
                push("from", json::s(from.clone()));
                push("to", json::s(to.clone()));
                push("what", json::s(what.clone()));
            }
            Event::TaskRecovered {
                task,
                resource,
                latency,
            } => {
                push("task", json::num(*task as f64));
                push("resource", json::s(resource.clone()));
                push("latency", json::num(*latency as f64));
            }
            Event::RetryExhausted {
                task,
                resource,
                attempts,
            } => {
                push("task", json::num(*task as f64));
                push("resource", json::s(resource.clone()));
                push("attempts", json::num(f64::from(*attempts)));
            }
            Event::FreetimeSample {
                resource,
                freetime,
                committed,
            } => {
                push("resource", json::s(resource.clone()));
                push("freetime", json::num(*freetime as f64));
                push("committed", json::num(*committed as f64));
            }
            Event::GaSolutionCheck {
                resource,
                tasks,
                legit,
            } => {
                push("resource", json::s(resource.clone()));
                push("tasks", json::num(f64::from(*tasks)));
                push("legit", Value::Bool(*legit));
            }
            Event::ScaleDirective {
                resource,
                up,
                drained,
            } => {
                push("resource", json::s(resource.clone()));
                push("up", Value::Bool(*up));
                push("drained", json::num(f64::from(*drained)));
            }
            Event::TunerAdjust {
                parameter,
                from,
                to,
                trigger,
            } => {
                push("parameter", json::s(parameter.clone()));
                push("from", json::num(*from as f64));
                push("to", json::num(*to as f64));
                push("trigger", json::s(trigger.clone()));
            }
            Event::EngineStep { processed, pending } => {
                push("processed", json::num(*processed as f64));
                push("pending", json::num(*pending as f64));
            }
            Event::EngineHorizon { horizon } => {
                push("horizon", json::num(*horizon as f64));
            }
            Event::ShardSync {
                window,
                shards,
                batched,
                busiest,
            } => {
                push("window", json::num(*window as f64));
                push("shards", json::num(f64::from(*shards)));
                push("batched", json::num(*batched as f64));
                push("busiest", json::num(*busiest as f64));
            }
            Event::WalAppend { seq, epoch, bytes } => {
                push("seq", json::num(*seq as f64));
                push("epoch", json::num(*epoch as f64));
                push("bytes", json::num(*bytes as f64));
            }
            Event::WalReplay {
                records,
                last_seq,
                epoch,
                truncated_bytes,
            } => {
                push("records", json::num(*records as f64));
                push("last_seq", json::num(*last_seq as f64));
                push("epoch", json::num(*epoch as f64));
                push("truncated_bytes", json::num(*truncated_bytes as f64));
            }
            Event::IngestRejected { lines, queue_depth } => {
                push("lines", json::num(*lines as f64));
                push("queue_depth", json::num(*queue_depth as f64));
            }
        }
        Value::Obj(fields)
    }

    /// Inverse of [`to_json`](Self::to_json); `None` when the object is
    /// not a well-formed event.
    pub fn from_json(v: &Value) -> Option<TimedEvent> {
        let t = v.get("t")?.as_u64()?;
        let kind = v.get("type")?.as_str()?;
        let str_field = |k: &str| v.get(k).and_then(Value::as_str).map(str::to_string);
        let u64_field = |k: &str| v.get(k).and_then(Value::as_u64);
        let u32_field = |k: &str| u64_field(k).and_then(|n| u32::try_from(n).ok());
        let f64_field = |k: &str| v.get(k).and_then(Value::as_f64);
        let bool_field = |k: &str| v.get(k).and_then(Value::as_bool);
        let event = match kind {
            "task_submit" => Event::TaskSubmit {
                task: u64_field("task")?,
                resource: str_field("resource")?,
                deadline: u64_field("deadline")?,
            },
            "task_dispatch" => Event::TaskDispatch {
                task: u64_field("task")?,
                from: str_field("from")?,
                to: str_field("to")?,
                hops: u32_field("hops")?,
            },
            "task_start" => Event::TaskStart {
                task: u64_field("task")?,
                resource: str_field("resource")?,
                nodes: u32_field("nodes")?,
                queue_wait: u64_field("queue_wait")?,
            },
            "task_finish" => Event::TaskFinish {
                task: u64_field("task")?,
                resource: str_field("resource")?,
                deadline_met: bool_field("deadline_met")?,
            },
            "task_deadline_miss" => Event::TaskDeadlineMiss {
                task: u64_field("task")?,
                resource: str_field("resource")?,
                late: u64_field("late")?,
            },
            "completion_misfire" => Event::CompletionMisfire {
                task: u64_field("task")?,
                resource: str_field("resource")?,
                announced: u64_field("announced")?,
            },
            "task_reject" => Event::TaskReject {
                task: u64_field("task")?,
                resource: str_field("resource")?,
            },
            "ga_generation" => Event::GaGeneration {
                resource: str_field("resource")?,
                generation: u32_field("generation")?,
                best_cost: f64_field("best_cost")?,
                mean_cost: f64_field("mean_cost")?,
            },
            "ga_evolve" => Event::GaEvolve {
                resource: str_field("resource")?,
                generations: u32_field("generations")?,
                best_cost: f64_field("best_cost")?,
                converged: bool_field("converged")?,
                wall_us: u64_field("wall_us")?,
                cache_hits: u64_field("cache_hits")?,
                cache_misses: u64_field("cache_misses")?,
            },
            "ga_hot_path" => Event::GaHotPath {
                resource: str_field("resource")?,
                threads: u32_field("threads")?,
                evaluations: u64_field("evaluations")?,
                evals_per_sec: f64_field("evals_per_sec")?,
                scratch_reuses: u64_field("scratch_reuses")?,
                fast_hits: u64_field("fast_hits")?,
                pool_utilisation: f64_field("pool_utilisation")?,
                // Added after the field set above shipped; absent in
                // older traces, so default rather than reject.
                islands: u32_field("islands").unwrap_or(1),
                delta_positions: u64_field("delta_positions").unwrap_or(0),
            },
            "cache_evaluate" => Event::CacheEvaluate {
                app: u32_field("app")?,
                platform: u32_field("platform")?,
                nprocs: u32_field("nprocs")?,
                predicted_s: f64_field("predicted_s")?,
            },
            "advertise" => Event::Advertise {
                agent: str_field("agent")?,
                to: str_field("to")?,
                push: bool_field("push")?,
            },
            "discovery" => Event::Discovery {
                task: u64_field("task")?,
                agent: str_field("agent")?,
                decision: str_field("decision")?,
                hops: u32_field("hops")?,
            },
            "escalation_hop" => Event::EscalationHop {
                task: u64_field("task")?,
                from: str_field("from")?,
                to: str_field("to")?,
            },
            "executor_launch" => Event::ExecutorLaunch {
                task: u64_field("task")?,
                env: str_field("env")?,
                duration_s: f64_field("duration_s")?,
            },
            "agent_down" => Event::AgentDown {
                resource: str_field("resource")?,
            },
            "agent_up" => Event::AgentUp {
                resource: str_field("resource")?,
            },
            "msg_dropped" => Event::MsgDropped {
                from: str_field("from")?,
                to: str_field("to")?,
                what: str_field("what")?,
            },
            "task_recovered" => Event::TaskRecovered {
                task: u64_field("task")?,
                resource: str_field("resource")?,
                latency: u64_field("latency")?,
            },
            "retry_exhausted" => Event::RetryExhausted {
                task: u64_field("task")?,
                resource: str_field("resource")?,
                attempts: u32_field("attempts")?,
            },
            "freetime_sample" => Event::FreetimeSample {
                resource: str_field("resource")?,
                freetime: u64_field("freetime")?,
                committed: u64_field("committed")?,
            },
            "ga_solution_check" => Event::GaSolutionCheck {
                resource: str_field("resource")?,
                tasks: u32_field("tasks")?,
                legit: bool_field("legit")?,
            },
            "scale_directive" => Event::ScaleDirective {
                resource: str_field("resource")?,
                up: bool_field("up")?,
                drained: u32_field("drained")?,
            },
            "tuner_adjust" => Event::TunerAdjust {
                parameter: str_field("parameter")?,
                from: u64_field("from")?,
                to: u64_field("to")?,
                trigger: str_field("trigger")?,
            },
            "engine_step" => Event::EngineStep {
                processed: u64_field("processed")?,
                pending: u64_field("pending")?,
            },
            "engine_horizon" => Event::EngineHorizon {
                horizon: u64_field("horizon")?,
            },
            "shard_sync" => Event::ShardSync {
                window: u64_field("window")?,
                shards: u32_field("shards")?,
                batched: u64_field("batched")?,
                busiest: u64_field("busiest")?,
            },
            "wal_append" => Event::WalAppend {
                seq: u64_field("seq")?,
                epoch: u64_field("epoch")?,
                bytes: u64_field("bytes")?,
            },
            "wal_replay" => Event::WalReplay {
                records: u64_field("records")?,
                last_seq: u64_field("last_seq")?,
                epoch: u64_field("epoch")?,
                truncated_bytes: u64_field("truncated_bytes")?,
            },
            "ingest_rejected" => Event::IngestRejected {
                lines: u64_field("lines")?,
                queue_depth: u64_field("queue_depth")?,
            },
            _ => return None,
        };
        Some(TimedEvent { t, event })
    }
}

#[cfg(test)]
pub(crate) fn one_of_each_variant() -> Vec<TimedEvent> {
    let name = |s: &str| s.to_string();
    [
        Event::TaskSubmit {
            task: 1,
            resource: name("S1"),
            deadline: 5_000_000,
        },
        Event::TaskDispatch {
            task: 1,
            from: name("S1"),
            to: name("S2 \"quoted\"\n"),
            hops: 2,
        },
        Event::TaskStart {
            task: 1,
            resource: name("S2"),
            nodes: 4,
            queue_wait: 1_250_000,
        },
        Event::TaskFinish {
            task: 1,
            resource: name("S2"),
            deadline_met: true,
        },
        Event::TaskDeadlineMiss {
            task: 2,
            resource: name("S3"),
            late: 777,
        },
        Event::CompletionMisfire {
            task: 2,
            resource: name("S3"),
            announced: 9_000,
        },
        Event::TaskReject {
            task: 3,
            resource: name("S4"),
        },
        Event::GaGeneration {
            resource: name("S1"),
            generation: 7,
            best_cost: 0.125,
            mean_cost: 0.5,
        },
        Event::GaEvolve {
            resource: name("S1"),
            generations: 40,
            best_cost: 0.1,
            converged: false,
            wall_us: 1234,
            cache_hits: 900,
            cache_misses: 100,
        },
        Event::GaHotPath {
            resource: name("S1"),
            threads: 4,
            evaluations: 1640,
            evals_per_sec: 250_000.0,
            scratch_reuses: 1630,
            fast_hits: 15_000,
            pool_utilisation: 0.875,
            islands: 4,
            delta_positions: 9_800,
        },
        Event::CacheEvaluate {
            app: 3,
            platform: 1,
            nprocs: 8,
            predicted_s: 12.75,
        },
        Event::Advertise {
            agent: name("S5"),
            to: name("S1"),
            push: false,
        },
        Event::Discovery {
            task: 9,
            agent: name("S1"),
            decision: name("escalate"),
            hops: 1,
        },
        Event::EscalationHop {
            task: 9,
            from: name("S1"),
            to: name("root"),
        },
        Event::ExecutorLaunch {
            task: 9,
            env: name("test"),
            duration_s: 42.5,
        },
        Event::AgentDown {
            resource: name("S3"),
        },
        Event::AgentUp {
            resource: name("S3"),
        },
        Event::MsgDropped {
            from: name("S3"),
            to: name("S1"),
            what: name("pull"),
        },
        Event::TaskRecovered {
            task: 11,
            resource: name("S2"),
            latency: 4_000_000,
        },
        Event::RetryExhausted {
            task: 12,
            resource: name("S4"),
            attempts: 16,
        },
        Event::FreetimeSample {
            resource: name("S2"),
            freetime: 9_500_000,
            committed: 9_000_000,
        },
        Event::GaSolutionCheck {
            resource: name("S1"),
            tasks: 12,
            legit: true,
        },
        Event::ScaleDirective {
            resource: name("S3"),
            up: false,
            drained: 5,
        },
        Event::TunerAdjust {
            parameter: name("ga_generations"),
            from: 40,
            to: 80,
            trigger: name("backlog-high"),
        },
        Event::EngineStep {
            processed: 1000,
            pending: 17,
        },
        Event::EngineHorizon {
            horizon: 86_400_000_000,
        },
        Event::ShardSync {
            window: 12,
            shards: 4,
            batched: 96,
            busiest: 31,
        },
        Event::WalAppend {
            seq: 42,
            epoch: 1,
            bytes: 137,
        },
        Event::WalReplay {
            records: 41,
            last_seq: 41,
            epoch: 2,
            truncated_bytes: 19,
        },
        Event::IngestRejected {
            lines: 8,
            queue_depth: 1024,
        },
    ]
    .into_iter()
    .enumerate()
    .map(|(i, event)| TimedEvent {
        t: i as u64 * 1000,
        event,
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_roundtrips_through_json() {
        for te in one_of_each_variant() {
            let v = te.to_json();
            let back = TimedEvent::from_json(&v).expect("roundtrip parses");
            assert_eq!(back, te);
            // And through the textual form too.
            let reparsed = crate::json::Value::parse(&v.to_compact()).unwrap();
            assert_eq!(TimedEvent::from_json(&reparsed).unwrap(), te);
        }
    }

    #[test]
    fn kinds_are_distinct() {
        let kinds: std::collections::BTreeSet<&str> = one_of_each_variant()
            .iter()
            .map(|te| te.event.kind())
            .collect();
        assert_eq!(kinds.len(), one_of_each_variant().len());
    }

    #[test]
    fn from_json_rejects_wrong_shapes() {
        assert_eq!(TimedEvent::from_json(&crate::json::num(1.0)), None);
        let missing = crate::json::obj(vec![("t", crate::json::num(0.0))]);
        assert_eq!(TimedEvent::from_json(&missing), None);
        let unknown = crate::json::obj(vec![
            ("t", crate::json::num(0.0)),
            ("type", crate::json::s("no_such_event")),
        ]);
        assert_eq!(TimedEvent::from_json(&unknown), None);
    }
}
