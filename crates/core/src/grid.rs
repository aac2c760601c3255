//! The whole-grid assembly: schedulers + agents + virtual time.
//!
//! [`GridSystem`] owns one [`SchedulerSystem`] per grid resource and the
//! agent [`Hierarchy`] above them, and advances them through a
//! discrete-event [`Simulation`]. Events are the paper's own vocabulary:
//! request arrivals at agents, task completions at resources, periodic
//! advertisement pulls between neighbouring agents, and resource-monitor
//! polls.
//!
//! Agent-to-agent messaging is instantaneous in virtual time (the paper's
//! LAN latencies are negligible against multi-second task runtimes); what
//! is *not* instantaneous — and is the crux of the reproduced behaviour —
//! is the staleness of advertised freetime between pulls.
//!
//! # Scaling (DESIGN.md §9)
//!
//! The event loop is sized for thousand-agent topologies:
//!
//! * Resources are interned into dense [`ResourceId`]s at construction;
//!   events, neighbour lists and bookkeeping index `Vec`s instead of
//!   walking `BTreeMap<String, _>`s. Ids are assigned in lexicographic
//!   name order, so every iteration order the string-keyed code relied on
//!   is reproduced exactly.
//! * `work_remains`/`horizon`/`migrations` are O(1) running counters
//!   maintained on submit/complete, not O(resources) scans per event
//!   (`debug_assert`s cross-check them against the scans).
//! * Per-resource [`ServiceInfo`] is built once at construction. A pull
//!   writes the live freetime into the puller's existing ACT row (two
//!   stores, no `Arc` traffic), and a discovery hop stamps it into the
//!   resource's own document in place (DESIGN.md §9, "ACT rows and O(1)
//!   freetime").
//!
//! [`GridSystem::set_baseline_bookkeeping`] restores the legacy
//! scan-per-event behaviour for benchmark comparison (`gridscale
//! --baseline`); results are identical either way, only the cost moves.

use agentgrid_agents::{
    AdvertisementStrategy, Agent, DiscoveryDecision, Endpoint, FailurePolicy, Hierarchy,
    MatchmakerKind, NameTable, Portal, RequestEnvelope, RequestInfo, ResourceId, ServiceInfo,
};
use agentgrid_cluster::{ExecEnv, ResourceMonitor};
use agentgrid_pace::{ApplicationModel, CachedEngine, Catalog, NoiseModel, Platform};
use agentgrid_scheduler::{GaConfig, PolicyConfig, SchedulerSystem, StartedTask, Task, TaskId};
use agentgrid_sim::{trace::TraceKind, RngStream, SimDuration, SimTime, Simulation, Trace};
use agentgrid_telemetry::{Event, Telemetry};
use agentgrid_workload::{GeneratedRequest, GridTopology, LocalPolicy};
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::chaos::{Fault, FaultPlan};

/// How a request is assigned to an executing resource.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchMode {
    /// Execute at the agent the request reached (experiments 1–2).
    Local,
    /// §3 agent-based service discovery (experiment 3).
    Discovery,
    /// Blind uniform-random placement — an ablation baseline that
    /// spreads load without any performance knowledge.
    Random,
    /// Round-robin placement — an ablation baseline that spreads load
    /// evenly by count, ignoring heterogeneity and backlog.
    RoundRobin,
}

/// Everything that configures a grid run beyond the topology and the
/// application catalogue.
#[derive(Clone, Debug)]
pub struct GridConfig {
    /// Local scheduling algorithm (Table 2's FIFO / GA column).
    pub policy: LocalPolicy,
    /// GA tuning (ignored under FIFO).
    pub ga: GaConfig,
    /// How requests are assigned to resources. Table 2's "agent-based
    /// service discovery" column toggles between [`DispatchMode::Local`]
    /// and [`DispatchMode::Discovery`]; the blind modes are ablation
    /// baselines beyond the paper.
    pub dispatch: DispatchMode,
    /// What the hierarchy head does when discovery fails.
    pub failure_policy: FailurePolicy,
    /// How service information propagates: the paper's 10-second
    /// periodic pull, or event-driven push on freetime movement.
    pub advertisement: AdvertisementStrategy,
    /// How agents rank advertised services during discovery: eq. 10's
    /// completion estimate, or sealed provider bids.
    pub matchmaker: MatchmakerKind,
    /// Master seed for every random stream in the run.
    pub seed: u64,
    /// Record a full event trace.
    pub trace: bool,
    /// Prediction-error model for actual task durations (future-work
    /// accuracy experiments; `Exact` reproduces the paper's test mode).
    pub noise: NoiseModel,
    /// Gossip: advertisement also carries the sender's capability table,
    /// so service information propagates through the hierarchy and every
    /// agent eventually knows every resource ("each agent maintains a
    /// set of service information for the other agents in the system").
    /// Off by default: discovery then sees neighbours only, the paper's
    /// §3.1 letter.
    pub gossip: bool,
    /// Structured telemetry sink for the run. Disabled by default; when
    /// enabled every layer (engine, schedulers, GA, cache, agents)
    /// records through this handle.
    pub telemetry: Telemetry,
    /// Fault-injection script and recovery knobs (DESIGN.md §10). The
    /// default empty plan is a strict no-op: the grid stays on the
    /// exact pre-chaos code paths and produces byte-identical results.
    pub chaos: FaultPlan,
}

impl GridConfig {
    /// Paper defaults for the given design axes.
    pub fn new(policy: LocalPolicy, agents_enabled: bool, seed: u64) -> GridConfig {
        GridConfig {
            policy,
            ga: GaConfig::default(),
            dispatch: if agents_enabled {
                DispatchMode::Discovery
            } else {
                DispatchMode::Local
            },
            failure_policy: FailurePolicy::BestEffort,
            advertisement: AdvertisementStrategy::default(),
            matchmaker: MatchmakerKind::default(),
            seed,
            trace: false,
            noise: NoiseModel::Exact,
            gossip: false,
            telemetry: Telemetry::disabled(),
            chaos: FaultPlan::none(),
        }
    }
}

/// The event alphabet of a grid run. Events carry interned
/// [`ResourceId`]s, so the whole enum is `Copy` and a scheduled event
/// costs no allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GridEvent {
    /// The `i`-th workload request reaches its target agent.
    Request(usize),
    /// A running task's (predicted, exact in test mode) completion.
    TaskComplete {
        /// Resource executing the task.
        resource: ResourceId,
        /// The task.
        id: TaskId,
    },
    /// An agent pulls service info from all its neighbours.
    AdvertisementPull {
        /// The pulling agent.
        agent: ResourceId,
    },
    /// A resource monitor polls host availability.
    MonitorPoll {
        /// The polled resource.
        resource: ResourceId,
    },
    /// A scripted fault from the run's [`FaultPlan`] fires.
    Fault {
        /// Index into the resolved fault timeline.
        index: u32,
    },
    /// A failed dispatch's retry backoff expired: re-run discovery for
    /// the request, routing around the targets that failed before.
    DispatchRetry {
        /// Index of the workload request being retried.
        request: u32,
    },
    /// An advertisement in flight on a delayed link reaches its
    /// receiver.
    AdvertDeliver {
        /// Slot in the in-flight advertisement slab.
        slot: u32,
    },
}

/// A workload request resolved against the grid at bootstrap: target
/// agent interned, application model looked up, the Fig. 6 request
/// document built once. The per-event cost of `GridEvent::Request` is a
/// couple of `Arc` clones instead of a string-cloning `GeneratedRequest`.
struct PreparedRequest {
    agent: ResourceId,
    app: Option<Arc<ApplicationModel>>,
    info: Arc<RequestInfo>,
    deadline: SimTime,
    environment: ExecEnv,
}

/// Counters from a run's fault-injection layer.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ChaosStats {
    /// Crash faults applied (a crash while already down is ignored).
    pub crashes: u64,
    /// Messages lost to crashed endpoints, severed links and random
    /// advertisement loss.
    pub dropped_messages: u64,
    /// Tasks lost in a crash and successfully re-placed.
    pub recovered_tasks: u64,
    /// Requests whose dispatch retry budget ran out.
    pub retries_exhausted: u64,
    /// Mean loss-to-replacement latency over recovered tasks, seconds.
    pub recovery_latency_mean_s: f64,
    /// Worst loss-to-replacement latency, seconds.
    pub recovery_latency_max_s: f64,
}

/// One entry of the fault timeline with its names interned.
struct ResolvedFault {
    at: SimTime,
    kind: FaultKind,
}

#[derive(Clone, Copy)]
enum FaultKind {
    Crash(ResourceId),
    Restart(ResourceId),
    ScaleDown(ResourceId),
    ScaleUp(ResourceId),
    LinkDrop(ResourceId, ResourceId),
    LinkRestore(ResourceId, ResourceId),
    LinkDelay(ResourceId, ResourceId, SimDuration),
}

/// Per-request recovery state under chaos.
#[derive(Clone, Default)]
struct ReqChaos {
    /// Cumulative dispatch attempts (arrival plus every retry) over the
    /// request's whole lifetime, crashes included.
    attempt: u32,
    /// Stable task id, allocated on the first routed attempt and reused
    /// by every retry so completion dedup has one id to track.
    task: Option<TaskId>,
    /// When the task was last lost in a crash; taken on re-placement.
    lost_at: Option<SimTime>,
    /// Arrived but not yet completed or terminally rejected.
    outstanding: bool,
    /// Targets that proved unreachable; pre-marked visited on retries
    /// so discovery routes around them.
    excluded: Vec<ResourceId>,
}

/// An advertisement in flight on a delayed link: only the freetime the
/// sender advertised travels; the static part is the sender's document.
struct DelayedAdvert {
    from: ResourceId,
    to: ResourceId,
    freetime: SimTime,
    push: bool,
}

/// Live fault-injection state. Present only for non-noop plans: with an
/// empty [`FaultPlan`] this is `None` and every event takes the exact
/// legacy code path.
struct ChaosState {
    timeline: Vec<ResolvedFault>,
    /// Crashed-and-not-yet-restarted flag per resource.
    down: Vec<bool>,
    /// Severed directed links `(from, to)`.
    link_down: BTreeSet<(ResourceId, ResourceId)>,
    /// Added advertisement latency per directed link.
    link_delay: BTreeMap<(ResourceId, ResourceId), SimDuration>,
    pull_loss_rate: f64,
    /// Dedicated stream for loss draws, so enabling chaos never shifts
    /// the GA or workload randomness.
    loss_rng: RngStream,
    dispatch_timeout: SimDuration,
    max_retries: u32,
    backoff_cap: u32,
    /// Indexed like the workload requests.
    reqs: Vec<ReqChaos>,
    /// Slab of in-flight delayed advertisements.
    delayed: Vec<Option<DelayedAdvert>>,
    free_slots: Vec<u32>,
    /// Requests arrived but not yet completed or rejected; folds into
    /// `work_remains` so periodic chains outlive an outage.
    outstanding: usize,
    /// Completion-dedup set, indexed by task id.
    completed_tasks: Vec<bool>,
    /// Test-only: skip the dedup set so stale completions are processed
    /// twice ([`FaultPlan::sabotage_dedup`]). The verify fuzzer proves
    /// it catches the resulting exactly-once violation.
    sabotage_dedup: bool,
    /// Request index per task id.
    task_request: Vec<usize>,
    duplicate_completions: u64,
    crashes: u64,
    dropped_messages: u64,
    recovered: u64,
    retries_exhausted: u64,
    recovery_latency_ticks: u64,
    recovery_latency_max: SimDuration,
}

impl ChaosState {
    fn enqueue_delayed(&mut self, adv: DelayedAdvert) -> u32 {
        if let Some(slot) = self.free_slots.pop() {
            self.delayed[slot as usize] = Some(adv);
            slot
        } else {
            self.delayed.push(Some(adv));
            (self.delayed.len() - 1) as u32
        }
    }

    fn clear_outstanding(&mut self, i: usize) {
        if self.reqs[i].outstanding {
            self.reqs[i].outstanding = false;
            self.outstanding -= 1;
        }
    }
}

/// The disjoint state views a sharded pull batch runs over (DESIGN.md
/// §13): shard workers split `agents` into per-shard sub-slices and read
/// the shared tables immutably, so batched pulls commute exactly.
pub struct PullBatchParts<'a> {
    /// Every agent, id-indexed (split per shard by the runner).
    pub agents: &'a mut [Agent],
    /// Read-only: pure `freetime(now)` queries during a batch.
    pub schedulers: &'a [SchedulerSystem],
    /// Read-only: per-resource Fig. 5 documents whose static part the
    /// pulled ACT rows share.
    pub templates: &'a [ServiceInfo],
}

/// A grid of resources, their schedulers, and the agent hierarchy.
pub struct GridSystem {
    names: Arc<NameTable>,
    /// Indexed by [`ResourceId`]; iteration order == name order.
    schedulers: Vec<SchedulerSystem>,
    hierarchy: Hierarchy,
    dispatch: DispatchMode,
    rr_counter: usize,
    platforms: Vec<Platform>,
    apps: BTreeMap<String, Arc<ApplicationModel>>,
    engine: Arc<CachedEngine>,
    requests: Vec<PreparedRequest>,
    remaining_requests: usize,
    advertisement: AdvertisementStrategy,
    gossip: bool,
    /// Freetime advertised at the last push, per resource (push mode).
    last_advertised: Vec<SimTime>,
    monitor_polls_enabled: bool,
    /// Whether each agent's periodic pull chain has a pending event.
    /// Chains lapse when `work_remains` turns false; the serve loop
    /// revives them when it injects new work into an idle grid. Purely
    /// passive bookkeeping for batch runs.
    pull_live: Vec<bool>,
    /// Same, for the periodic monitor-poll chains.
    monitor_live: Vec<bool>,
    /// The ACT TTL in force on every agent (mirrors the per-agent
    /// setting so the online tuner can read and adjust it).
    act_ttl: Option<SimDuration>,
    portal: Portal,
    next_task: u64,
    /// Submitting agent per task, indexed by task id.
    origins: Vec<ResourceId>,
    /// Executing resource per task (set at submission), indexed by task
    /// id; `None` for rejected tasks.
    executors: Vec<Option<ResourceId>>,
    /// Tasks submitted to a scheduler and not yet completed.
    active_tasks: usize,
    /// Running max of completion instants (== the completed-task scan).
    horizon_max: SimTime,
    /// Running count of origin != executor submissions.
    migration_count: usize,
    rejected: usize,
    pull_messages: u64,
    discovery_hops: u64,
    /// Reusable neighbour-id buffer (avoids a Vec per pull/push).
    scratch_neighbours: Vec<ResourceId>,
    /// Per-resource Fig. 5 documents, built once. ACT rows share their
    /// static part; `freetime` is stamped in place before a discovery
    /// hop reads a resource's own document.
    services: Vec<ServiceInfo>,
    /// Legacy bookkeeping for benchmarking: O(R) scans per event and
    /// re-formatted service info, exactly as before the §9 rework.
    baseline: bool,
    /// What the hierarchy head does when discovery or the retry budget
    /// fails (also threaded into each agent at construction).
    failure_policy: FailurePolicy,
    /// Fault-injection state; `None` for a no-op plan.
    chaos: Option<Box<ChaosState>>,
    trace: Trace,
    telemetry: Telemetry,
}

impl GridSystem {
    /// Assemble a grid over `topology` and `catalog` under `config`.
    pub fn new(topology: &GridTopology, catalog: &Catalog, config: &GridConfig) -> GridSystem {
        // Size the dense lock-free prediction table for exactly the
        // catalogue × platform × node-count matrix this grid can query,
        // so island-concurrent GA readers never contend on the map lock
        // for an in-matrix key.
        let max_app = catalog.apps().iter().map(|a| a.id.0).max().unwrap_or(0);
        let max_platform = topology
            .resources
            .iter()
            .map(|r| r.platform.id)
            .max()
            .unwrap_or(0);
        let max_nproc = topology
            .resources
            .iter()
            .map(|r| r.nproc)
            .max()
            .unwrap_or(1);
        let dims = agentgrid_pace::FastTableDims::for_matrix(max_app, max_platform, max_nproc);
        let engine = Arc::new(CachedEngine::with_dims(config.telemetry.clone(), dims));
        let root = RngStream::root(config.seed);

        let pairs: Vec<(String, Option<String>)> = topology.parent_pairs();
        let pairs_ref: Vec<(&str, Option<&str>)> = pairs
            .iter()
            .map(|(n, p)| (n.as_str(), p.as_deref()))
            .collect();
        let mut hierarchy =
            Hierarchy::from_parents(&pairs_ref).expect("topology forms a valid hierarchy");
        let ids: Vec<ResourceId> = hierarchy.ids().collect();
        for id in &ids {
            let agent = hierarchy
                .agent(*id)
                .clone()
                .with_policy(config.failure_policy)
                .with_matchmaker(config.matchmaker.build());
            *hierarchy.agent_mut(*id) = agent;
        }
        hierarchy.set_telemetry(&config.telemetry);
        let names = Arc::clone(hierarchy.table());

        let spec_by_name: BTreeMap<&str, &agentgrid_workload::ResourceSpec> = topology
            .resources
            .iter()
            .map(|s| (s.name.as_str(), s))
            .collect();
        let mut schedulers = Vec::with_capacity(names.len());
        for id in names.ids() {
            let spec = spec_by_name[names.name(id)];
            let resource =
                agentgrid_cluster::GridResource::new(&spec.name, spec.platform.clone(), spec.nproc);
            let policy_cfg = match config.policy {
                LocalPolicy::Fifo => PolicyConfig::Fifo,
                LocalPolicy::Ga => PolicyConfig::Ga(config.ga),
                LocalPolicy::Batch => {
                    PolicyConfig::Batch(agentgrid_scheduler::BatchConfig::default())
                }
                LocalPolicy::MinMin => PolicyConfig::MinMin,
                LocalPolicy::MaxMin => PolicyConfig::MaxMin,
                LocalPolicy::Sufferage => PolicyConfig::Sufferage,
                LocalPolicy::Anneal => {
                    PolicyConfig::Annealing(agentgrid_scheduler::SaConfig::default())
                }
            };
            let rng = root.derive(&format!("ga/{}", spec.name));
            let mut scheduler =
                SchedulerSystem::new(resource, policy_cfg, Arc::clone(&engine), rng);
            scheduler.set_noise(config.noise);
            scheduler.set_telemetry(config.telemetry.clone());
            schedulers.push(scheduler);
        }

        let mut platforms: Vec<Platform> = Vec::new();
        for spec in &topology.resources {
            if !platforms.iter().any(|p| p.name == spec.platform.name) {
                platforms.push(spec.platform.clone());
            }
        }

        let apps = catalog
            .apps()
            .iter()
            .map(|a| (a.name.clone(), Arc::new(a.clone())))
            .collect();

        let services = names
            .ids()
            .map(|id| {
                let s = &schedulers[id.index()];
                let host = format!("{}.grid.example.org", names.name(id).to_lowercase());
                ServiceInfo {
                    agent: Endpoint::new(&host, 1000),
                    local: Endpoint::new(&host, 10000),
                    machine_type: s.resource().model().platform.name.as_str().into(),
                    nproc: s.resource().nproc(),
                    environments: s.supported_envs().to_vec().into(),
                    freetime: SimTime::ZERO,
                }
            })
            .collect();
        let n = names.len();

        let chaos = if config.chaos.is_noop() {
            None
        } else {
            if let Some(ttl) = config.chaos.act_ttl {
                for id in names.ids() {
                    hierarchy.agent_mut(id).set_act_ttl(Some(ttl));
                }
            }
            let timeline = config
                .chaos
                .events
                .iter()
                .map(|e| ResolvedFault {
                    at: e.at,
                    kind: match &e.fault {
                        Fault::AgentCrash { resource } => {
                            FaultKind::Crash(names.expect_id(resource))
                        }
                        Fault::AgentRestart { resource } => {
                            FaultKind::Restart(names.expect_id(resource))
                        }
                        Fault::ScaleDown { resource } => {
                            FaultKind::ScaleDown(names.expect_id(resource))
                        }
                        Fault::ScaleUp { resource } => {
                            FaultKind::ScaleUp(names.expect_id(resource))
                        }
                        Fault::LinkDrop { from, to } => {
                            FaultKind::LinkDrop(names.expect_id(from), names.expect_id(to))
                        }
                        Fault::LinkRestore { from, to } => {
                            FaultKind::LinkRestore(names.expect_id(from), names.expect_id(to))
                        }
                        Fault::LinkDelay { from, to, delay } => {
                            FaultKind::LinkDelay(names.expect_id(from), names.expect_id(to), *delay)
                        }
                    },
                })
                .collect();
            Some(Box::new(ChaosState {
                timeline,
                down: vec![false; n],
                link_down: BTreeSet::new(),
                link_delay: BTreeMap::new(),
                pull_loss_rate: config.chaos.pull_loss_rate,
                loss_rng: root.derive("chaos"),
                // A zero timeout would retry at the same instant; one
                // tick is the shortest meaningful backoff base.
                dispatch_timeout: config
                    .chaos
                    .dispatch_timeout
                    .max(SimDuration::from_ticks(1)),
                max_retries: config.chaos.max_retries,
                backoff_cap: config.chaos.backoff_cap,
                reqs: Vec::new(),
                delayed: Vec::new(),
                free_slots: Vec::new(),
                outstanding: 0,
                completed_tasks: Vec::new(),
                sabotage_dedup: config.chaos.sabotage_dedup,
                task_request: Vec::new(),
                duplicate_completions: 0,
                crashes: 0,
                dropped_messages: 0,
                recovered: 0,
                retries_exhausted: 0,
                recovery_latency_ticks: 0,
                recovery_latency_max: SimDuration::ZERO,
            }))
        };

        GridSystem {
            names,
            schedulers,
            hierarchy,
            dispatch: config.dispatch,
            rr_counter: 0,
            platforms,
            apps,
            engine,
            requests: Vec::new(),
            remaining_requests: 0,
            advertisement: config.advertisement,
            gossip: config.gossip,
            last_advertised: vec![SimTime::ZERO; n],
            monitor_polls_enabled: false,
            pull_live: vec![false; n],
            monitor_live: vec![false; n],
            act_ttl: config.chaos.act_ttl,
            portal: Portal::new("user@grid.example.org"),
            next_task: 0,
            origins: Vec::new(),
            executors: Vec::new(),
            active_tasks: 0,
            horizon_max: SimTime::ZERO,
            migration_count: 0,
            rejected: 0,
            pull_messages: 0,
            discovery_hops: 0,
            scratch_neighbours: Vec::new(),
            services,
            baseline: false,
            failure_policy: config.failure_policy,
            chaos,
            trace: if config.trace {
                Trace::enabled()
            } else {
                Trace::disabled()
            },
            telemetry: config.telemetry.clone(),
        }
    }

    /// Enable periodic resource-monitor polls (5-minute default inside
    /// each scheduler). Off by default: the case study injects no
    /// failures, and polls only add events.
    pub fn enable_monitor_polls(&mut self) {
        self.monitor_polls_enabled = true;
    }

    /// Restore the pre-§9 bookkeeping — O(resources) `work_remains`/
    /// `horizon`/`migrations` scans and per-advertisement `format!`-built
    /// service info — for benchmark comparison. Results are identical;
    /// only the cost profile changes.
    pub fn set_baseline_bookkeeping(&mut self, on: bool) {
        self.baseline = on;
    }

    /// Record a trace event attributed to `who`, with the detail string
    /// built by `detail` against the shared name table. In normal mode
    /// the closure runs only when the trace is enabled; in baseline mode
    /// it runs eagerly, reproducing the legacy per-event formatting cost.
    fn trace_at(
        &mut self,
        at: SimTime,
        kind: TraceKind,
        who: ResourceId,
        detail: impl FnOnce(&NameTable) -> String,
    ) {
        if self.baseline {
            let detail = detail(&self.names);
            let who = self.names.name_arc(who);
            self.trace.record(at, kind, &who, detail);
        } else {
            let names = &self.names;
            self.trace
                .record_with(at, kind, || (names.name(who).to_string(), detail(names)));
        }
    }

    /// Load the workload and schedule all bootstrap events: one
    /// [`GridEvent::Request`] per generated request, plus the initial
    /// advertisement pulls (and monitor polls if enabled).
    pub fn bootstrap(&mut self, sim: &mut Simulation<GridEvent>, requests: Vec<GeneratedRequest>) {
        self.remaining_requests = requests.len();
        self.requests = requests
            .iter()
            .enumerate()
            .map(|(i, r)| {
                sim.schedule(r.at, GridEvent::Request(i));
                PreparedRequest {
                    agent: self.names.expect_id(&r.agent),
                    app: self.apps.get(&r.application).cloned(),
                    info: Arc::new(
                        self.portal
                            .request(&r.application, r.environment, r.deadline),
                    ),
                    deadline: r.deadline,
                    environment: r.environment,
                }
            })
            .collect();
        if self.dispatch == DispatchMode::Discovery {
            match self.advertisement {
                AdvertisementStrategy::PeriodicPull { .. } => {
                    for agent in self.names.ids() {
                        sim.schedule(SimTime::ZERO, GridEvent::AdvertisementPull { agent });
                        self.pull_live[agent.index()] = true;
                    }
                }
                AdvertisementStrategy::EventPush { .. } => {
                    // Seed every ACT once, then rely on pushes.
                    for id in 0..self.names.len() as u32 {
                        self.push_from(sim, ResourceId(id), SimTime::ZERO);
                    }
                }
            }
        }
        if self.monitor_polls_enabled {
            for resource in self.names.ids() {
                sim.schedule(SimTime::ZERO, GridEvent::MonitorPoll { resource });
                self.monitor_live[resource.index()] = true;
            }
        }
        if let Some(c) = self.chaos.as_mut() {
            c.reqs = vec![ReqChaos::default(); self.requests.len()];
            for (index, f) in c.timeline.iter().enumerate() {
                sim.schedule(
                    f.at,
                    GridEvent::Fault {
                        index: index as u32,
                    },
                );
            }
        }
    }

    /// Handle one event, scheduling any follow-ups.
    pub fn handle(&mut self, sim: &mut Simulation<GridEvent>, event: GridEvent) {
        let now = sim.now();
        if self.telemetry.is_enabled() {
            // The evaluation cache has no virtual clock of its own; keep
            // its telemetry timestamp in step with the simulation.
            self.engine.set_clock(now.ticks());
        }
        match event {
            GridEvent::Request(i) => {
                self.remaining_requests = self.remaining_requests.saturating_sub(1);
                let prep = &self.requests[i];
                let (who, deadline, info) = (prep.agent, prep.deadline, Arc::clone(&prep.info));
                self.trace_at(now, TraceKind::RequestArrival, who, |_| {
                    format!("{} deadline {deadline}", info.application)
                });
                if self.chaos.is_some() {
                    if self.requests[i].app.is_none() {
                        // Unknown applications are terminal, exactly as
                        // in the legacy route: no retries.
                        self.rejected += 1;
                        self.trace_at(now, TraceKind::Discovery, who, |_| {
                            format!("unknown application {}", info.application)
                        });
                    } else {
                        let c = self.chaos.as_mut().expect("chaos checked above");
                        c.reqs[i].outstanding = true;
                        c.outstanding += 1;
                        self.attempt_request(sim, i, now);
                    }
                } else if let Some((executor, task)) = self.route(i, now) {
                    self.submit_to(sim, executor, task, now);
                    self.maybe_push(sim, executor, now);
                }
            }
            GridEvent::TaskComplete { resource, id } => {
                if let Some(c) = self.chaos.as_mut() {
                    // A completion event can outlive a crash that lost
                    // its task. The genuine completion fires at exactly
                    // the instant the scheduler recorded, so anything
                    // else — task gone, or a resubmitted incarnation
                    // with a different completion — is stale noise.
                    // Under test-only sabotage both guards are skipped,
                    // recreating the bug they exist to prevent.
                    if !c.sabotage_dedup
                        && self.schedulers[resource.index()].running_completion(id) != Some(now)
                    {
                        return;
                    }
                    // At-least-once dedup: resubmission must never let a
                    // task complete twice. This cannot fire while the
                    // recovery bookkeeping is sound; the counter is the
                    // detector the chaos tests assert stays zero.
                    if !c.sabotage_dedup && c.completed_tasks[id.0 as usize] {
                        c.duplicate_completions += 1;
                        return;
                    }
                }
                self.trace_at(now, TraceKind::TaskComplete, resource, |_| format!("{id}"));
                let started = self.schedulers[resource.index()].on_task_complete(id, now);
                // One completion event per started task, one start per
                // submitted task: the counter mirrors the queue scan.
                self.active_tasks = self.active_tasks.saturating_sub(1);
                self.horizon_max = self.horizon_max.max(now);
                self.settle_completion(id);
                self.schedule_started(sim, resource, &started);
                self.maybe_push(sim, resource, now);
            }
            GridEvent::AdvertisementPull { agent } => {
                if !self.chaos_down(agent) {
                    self.pull(sim, agent, now);
                }
                if let AdvertisementStrategy::PeriodicPull { period } = self.advertisement {
                    let live = self.work_remains();
                    if live {
                        sim.schedule_in(period, GridEvent::AdvertisementPull { agent });
                    }
                    self.pull_live[agent.index()] = live;
                }
            }
            GridEvent::MonitorPoll { resource } => {
                let s = &mut self.schedulers[resource.index()];
                let period = s.monitor_mut().period();
                if !self.chaos_down(resource) {
                    let started = self.schedulers[resource.index()].on_monitor_poll(now);
                    self.schedule_started(sim, resource, &started);
                }
                let live = self.work_remains();
                if live {
                    sim.schedule_in(period, GridEvent::MonitorPoll { resource });
                }
                self.monitor_live[resource.index()] = live;
            }
            GridEvent::Fault { index } => self.apply_fault(sim, index as usize, now),
            GridEvent::DispatchRetry { request } => {
                let i = request as usize;
                let live = self.chaos.as_ref().is_some_and(|c| c.reqs[i].outstanding);
                if live {
                    self.attempt_request(sim, i, now);
                }
            }
            GridEvent::AdvertDeliver { slot } => self.deliver_advert(slot as usize, now),
        }
    }

    /// Decide where a request executes. Without agents: at the agent it
    /// reached. With agents: run the §3.2 discovery walk.
    fn route(&mut self, i: usize, now: SimTime) -> Option<(ResourceId, Task)> {
        let prep = &self.requests[i];
        let origin = prep.agent;
        let deadline = prep.deadline;
        let environment = prep.environment;
        let app = match &prep.app {
            Some(a) => Arc::clone(a),
            None => {
                self.rejected += 1;
                let info = Arc::clone(&prep.info);
                self.trace_at(now, TraceKind::Discovery, origin, |_| {
                    format!("unknown application {}", info.application)
                });
                return None;
            }
        };
        let id = TaskId(self.next_task);
        self.next_task += 1;
        let task = Task::new(id, app.clone(), now, deadline, environment);
        debug_assert_eq!(self.origins.len(), id.0 as usize, "task ids are dense");
        self.origins.push(origin);
        self.executors.push(None);

        match self.dispatch {
            DispatchMode::Local => return Some((origin, task)),
            DispatchMode::Random => {
                // Deterministic per-task pseudo-random pick over the
                // resources (seed-independent of the GA streams). Dense
                // ids replace the old sorted-name list: index == id.
                let pick = split_mix(id.0) as usize % self.schedulers.len();
                return Some((ResourceId(pick as u32), task));
            }
            DispatchMode::RoundRobin => {
                let pick = self.rr_counter % self.schedulers.len();
                self.rr_counter += 1;
                return Some((ResourceId(pick as u32), task));
            }
            DispatchMode::Discovery => {}
        }

        let mut envelope = RequestEnvelope::new(Arc::clone(&self.requests[i].info)).with_task(id.0);
        let mut current = origin;
        loop {
            let decision = self.decide_at(current, &envelope, &app, now);
            match decision {
                DiscoveryDecision::ExecuteLocally { .. } => {
                    let hops = envelope.hops;
                    self.trace_at(now, TraceKind::Discovery, current, |_| {
                        format!("{id} executes locally after {hops} hops")
                    });
                    self.discovery_hops += envelope.hops as u64;
                    return Some((current, task));
                }
                DiscoveryDecision::Dispatch { to, .. } => {
                    self.trace_at(now, TraceKind::Discovery, current, |names| {
                        format!("{id} dispatched to {}", names.name(to))
                    });
                    envelope.visit(current);
                    envelope.hops += 1;
                    let names = &self.names;
                    self.telemetry.emit(now.ticks(), || Event::TaskDispatch {
                        task: id.0,
                        from: names.name(current).to_string(),
                        to: names.name(to).to_string(),
                        hops: envelope.hops as u32,
                    });
                    current = to;
                }
                DiscoveryDecision::Escalate { to } => {
                    self.trace_at(now, TraceKind::Discovery, current, |names| {
                        format!("{id} escalated to {}", names.name(to))
                    });
                    envelope.visit(current);
                    envelope.hops += 1;
                    let names = &self.names;
                    self.telemetry.emit(now.ticks(), || Event::EscalationHop {
                        task: id.0,
                        from: names.name(current).to_string(),
                        to: names.name(to).to_string(),
                    });
                    current = to;
                }
                DiscoveryDecision::Reject => {
                    self.rejected += 1;
                    self.trace_at(now, TraceKind::Discovery, current, |_| {
                        format!("{id} rejected: no available service")
                    });
                    let names = &self.names;
                    self.telemetry.emit(now.ticks(), || Event::TaskReject {
                        task: id.0,
                        resource: names.name(current).to_string(),
                    });
                    return None;
                }
            }
        }
    }

    /// Submit a task to a resource's scheduler and schedule completions
    /// for whatever started. Returns whether the scheduler accepted it.
    fn submit_to(
        &mut self,
        sim: &mut Simulation<GridEvent>,
        resource: ResourceId,
        task: Task,
        now: SimTime,
    ) -> bool {
        let id = task.id;
        self.executors[id.0 as usize] = Some(resource);
        if self.origins[id.0 as usize] != resource {
            self.migration_count += 1;
        }
        self.trace_at(now, TraceKind::Enqueue, resource, |_| format!("{id}"));
        let started = match self.schedulers[resource.index()].submit(task, now) {
            Ok(s) => {
                self.active_tasks += 1;
                s
            }
            Err(e) => {
                self.rejected += 1;
                self.trace_at(now, TraceKind::Discovery, resource, |_| {
                    format!("{id}: {e}")
                });
                let names = &self.names;
                self.telemetry.emit(now.ticks(), || Event::TaskReject {
                    task: id.0,
                    resource: names.name(resource).to_string(),
                });
                return false;
            }
        };
        self.schedule_started(sim, resource, &started);
        true
    }

    fn schedule_started(
        &mut self,
        sim: &mut Simulation<GridEvent>,
        resource: ResourceId,
        started: &[StartedTask],
    ) {
        for s in started {
            self.trace_at(s.start, TraceKind::TaskStart, resource, |_| {
                format!("{} on {}", s.id, s.mask)
            });
            sim.schedule(s.completion, GridEvent::TaskComplete { resource, id: s.id });
        }
    }

    /// One agent pulls live service info from all its neighbours
    /// (§3.2's ten-second refresh).
    fn pull(&mut self, sim: &mut Simulation<GridEvent>, agent: ResourceId, now: SimTime) {
        let mut chaos = self.chaos.take();
        let mut neighbours = std::mem::take(&mut self.scratch_neighbours);
        neighbours.clear();
        neighbours.extend(self.hierarchy.agent(agent).neighbour_ids());
        for &n in &neighbours {
            if let Some(c) = chaos.as_deref_mut() {
                if self.chaos_pull_intercepted(sim, c, n, agent, now) {
                    continue;
                }
            }
            let freetime = self.schedulers[n.index()].freetime(now);
            self.pull_messages += 1;
            self.trace_at(now, TraceKind::Advertisement, agent, |names| {
                format!("pulled {} freetime={freetime}", names.name(n))
            });
            self.deliver(n, agent, freetime, now, false);
            // Under gossip a pull also carries the neighbour's table, so
            // knowledge of distant resources ripples through the tree.
            if self.gossip {
                let (me, them) = agent_pair(self.hierarchy.agents_mut(), agent, n);
                me.merge_act(them.act());
            }
        }
        self.scratch_neighbours = neighbours;
        self.chaos = chaos;
    }

    /// Whether consecutive `AdvertisementPull` events currently commute
    /// (DESIGN.md §13): each pull then reads only state that no other
    /// pull writes (immutable service templates, pure scheduler
    /// `freetime`, its own neighbour list) and writes only its own
    /// agent's ACT plus the batch-summable pull counter. Chaos can drop
    /// or delay individual messages, gossip copies neighbour ACTs
    /// mid-batch, the legacy baseline re-formats shared state, and
    /// tracing interleaves log lines — any of those forces the
    /// sequential path.
    pub fn pull_batching_eligible(&self) -> bool {
        matches!(
            self.advertisement,
            AdvertisementStrategy::PeriodicPull { .. }
        ) && self.chaos.is_none()
            && !self.gossip
            && !self.baseline
            && !self.trace.is_enabled()
    }

    /// The disjoint views one batch window's shard workers need: the
    /// id-indexed agent slice (split per shard by the runner) plus the
    /// shared read-only scheduler and document tables the refreshed rows
    /// read. Only meaningful while [`Self::pull_batching_eligible`].
    pub fn pull_batch_parts(&mut self) -> PullBatchParts<'_> {
        PullBatchParts {
            agents: self.hierarchy.agents_mut(),
            schedulers: &self.schedulers,
            templates: &self.services,
        }
    }

    /// Contiguous agent-id shard bounds for `shards` shards (see
    /// [`Hierarchy::shard_bounds`]): a pure function of the topology and
    /// the requested shard count, never of worker threads.
    pub fn shard_bounds(&self, shards: usize) -> Vec<usize> {
        self.hierarchy.shard_bounds(shards)
    }

    /// Commit one replayed pull from a batch window: everything the
    /// sequential `AdvertisementPull` arm does around the ACT updates
    /// the workers already applied — the telemetry prologue and buffered
    /// `Advertise` events in neighbour order, the pull-message counter,
    /// and the periodic reschedule (which re-derives `work_remains` at
    /// the same instant the sequential run would, so chain liveness and
    /// event seqs match exactly).
    pub fn finish_pull(
        &mut self,
        sim: &mut Simulation<GridEvent>,
        agent: ResourceId,
        now: SimTime,
        pulls: u64,
        events: Vec<Event>,
    ) {
        if self.telemetry.is_enabled() {
            self.engine.set_clock(now.ticks());
            for event in events {
                self.telemetry.emit(now.ticks(), || event);
            }
        }
        self.pull_messages += pulls;
        if let AdvertisementStrategy::PeriodicPull { period } = self.advertisement {
            let live = self.work_remains();
            if live {
                sim.schedule_in(period, GridEvent::AdvertisementPull { agent });
            }
            self.pull_live[agent.index()] = live;
        }
    }

    /// Chaos checks for one pull message `from → to`. Returns true when
    /// the message was dropped or put in flight on a delayed link (the
    /// caller then skips immediate delivery).
    fn chaos_pull_intercepted(
        &mut self,
        sim: &mut Simulation<GridEvent>,
        c: &mut ChaosState,
        from: ResourceId,
        to: ResourceId,
        now: SimTime,
    ) -> bool {
        if c.down[from.index()] || c.link_down.contains(&(from, to)) {
            self.pull_messages += 1;
            self.drop_message(c, from, to, "pull", now);
            return true;
        }
        if c.pull_loss_rate > 0.0 && c.loss_rng.gen_range(0.0..1.0) < c.pull_loss_rate {
            self.pull_messages += 1;
            self.drop_message(c, from, to, "pull", now);
            return true;
        }
        if let Some(&delay) = c.link_delay.get(&(from, to)) {
            self.pull_messages += 1;
            let slot = c.enqueue_delayed(DelayedAdvert {
                from,
                to,
                freetime: self.schedulers[from.index()].freetime(now),
                push: false,
            });
            sim.schedule_in(delay, GridEvent::AdvertDeliver { slot });
            return true;
        }
        false
    }

    /// Record one lost message: counter, telemetry, trace.
    fn drop_message(
        &mut self,
        c: &mut ChaosState,
        from: ResourceId,
        to: ResourceId,
        what: &'static str,
        now: SimTime,
    ) {
        c.dropped_messages += 1;
        let names = &self.names;
        self.telemetry.emit(now.ticks(), || Event::MsgDropped {
            from: names.name(from).to_string(),
            to: names.name(to).to_string(),
            what: what.to_string(),
        });
        self.trace_at(now, TraceKind::Info, to, |names| {
            format!("dropped {what} from {}", names.name(from))
        });
    }

    /// Push one resource's live service info to all its neighbours
    /// (event-driven advertisement).
    fn push_from(&mut self, sim: &mut Simulation<GridEvent>, agent: ResourceId, now: SimTime) {
        let mut chaos = self.chaos.take();
        self.push_from_inner(sim, chaos.as_deref_mut(), agent, now);
        self.chaos = chaos;
    }

    fn push_from_inner(
        &mut self,
        sim: &mut Simulation<GridEvent>,
        mut chaos: Option<&mut ChaosState>,
        agent: ResourceId,
        now: SimTime,
    ) {
        if let Some(c) = chaos.as_deref_mut() {
            if c.down[agent.index()] {
                return;
            }
        }
        let mut neighbours = std::mem::take(&mut self.scratch_neighbours);
        neighbours.clear();
        neighbours.extend(self.hierarchy.agent(agent).neighbour_ids());
        let freetime = self.schedulers[agent.index()].freetime(now);
        self.last_advertised[agent.index()] = freetime;
        for &n in &neighbours {
            if let Some(c) = chaos.as_deref_mut() {
                if c.down[n.index()] || c.link_down.contains(&(agent, n)) {
                    self.pull_messages += 1;
                    self.drop_message(c, agent, n, "advert", now);
                    continue;
                }
                if let Some(&delay) = c.link_delay.get(&(agent, n)) {
                    self.pull_messages += 1;
                    let slot = c.enqueue_delayed(DelayedAdvert {
                        from: agent,
                        to: n,
                        freetime,
                        push: true,
                    });
                    sim.schedule_in(delay, GridEvent::AdvertDeliver { slot });
                    continue;
                }
            }
            self.pull_messages += 1;
            self.trace_at(now, TraceKind::Advertisement, agent, |names| {
                format!("pushed freetime={freetime} to {}", names.name(n))
            });
            self.deliver(agent, n, freetime, now, true);
        }
        self.scratch_neighbours = neighbours;
    }

    /// In push mode: advertise `resource` if its freetime moved past the
    /// strategy threshold since the last push.
    fn maybe_push(&mut self, sim: &mut Simulation<GridEvent>, resource: ResourceId, now: SimTime) {
        let mut chaos = self.chaos.take();
        self.maybe_push_inner(sim, chaos.as_deref_mut(), resource, now);
        self.chaos = chaos;
    }

    fn maybe_push_inner(
        &mut self,
        sim: &mut Simulation<GridEvent>,
        chaos: Option<&mut ChaosState>,
        resource: ResourceId,
        now: SimTime,
    ) {
        if self.dispatch != DispatchMode::Discovery {
            return;
        }
        let AdvertisementStrategy::EventPush { .. } = self.advertisement else {
            return;
        };
        let current = self.schedulers[resource.index()].freetime(now);
        let last = self.last_advertised[resource.index()];
        if self.advertisement.push_due(last, current) {
            self.push_from_inner(sim, chaos, resource, now);
        }
    }

    // ---- fault injection and recovery (DESIGN.md §10) -------------------

    fn chaos_down(&self, r: ResourceId) -> bool {
        self.chaos.as_ref().is_some_and(|c| c.down[r.index()])
    }

    /// Apply scripted fault `index` from the plan's resolved timeline.
    fn apply_fault(&mut self, sim: &mut Simulation<GridEvent>, index: usize, now: SimTime) {
        let Some(mut c) = self.chaos.take() else {
            return;
        };
        match c.timeline[index].kind {
            FaultKind::Crash(r) => self.crash_resource(sim, &mut c, r, now),
            FaultKind::Restart(r) => self.restart_resource(sim, &mut c, r, now),
            FaultKind::ScaleDown(r) => self.scale_down_resource(sim, &mut c, r, now),
            FaultKind::ScaleUp(r) => self.scale_up_resource(sim, &mut c, r, now),
            FaultKind::LinkDrop(a, b) => {
                c.link_down.insert((a, b));
            }
            FaultKind::LinkRestore(a, b) => {
                c.link_down.remove(&(a, b));
            }
            FaultKind::LinkDelay(a, b, d) => {
                if d == SimDuration::ZERO {
                    c.link_delay.remove(&(a, b));
                } else {
                    c.link_delay.insert((a, b), d);
                }
            }
        }
        self.chaos = Some(c);
    }

    /// A resource crashes: its scheduler loses every queued and running
    /// task, the agent forgets its capability table and goes dark until
    /// restart. Lost tasks are re-driven from their origin through the
    /// retry path — the at-least-once half of the recovery invariant.
    fn crash_resource(
        &mut self,
        sim: &mut Simulation<GridEvent>,
        c: &mut ChaosState,
        r: ResourceId,
        now: SimTime,
    ) {
        if c.down[r.index()] {
            return;
        }
        c.down[r.index()] = true;
        c.crashes += 1;
        let names = &self.names;
        self.telemetry.emit(now.ticks(), || Event::AgentDown {
            resource: names.name(r).to_string(),
        });
        self.trace_at(now, TraceKind::Info, r, |_| "crashed".to_string());
        self.hierarchy.agent_mut(r).clear_act();
        self.last_advertised[r.index()] = SimTime::ZERO;
        let lost = self.schedulers[r.index()].crash(now);
        for task in lost {
            let idx = task.id.0 as usize;
            self.active_tasks = self.active_tasks.saturating_sub(1);
            if self.executors[idx].is_some_and(|e| e != self.origins[idx]) {
                self.migration_count -= 1;
            }
            self.executors[idx] = None;
            let i = c.task_request[idx];
            if c.reqs[i].lost_at.is_none() {
                c.reqs[i].lost_at = Some(now);
            }
            self.schedule_retry(sim, c, i, now);
        }
    }

    /// A crashed resource restarts with empty queues and an empty ACT;
    /// periodic pull chains kept ticking through the outage, so fresh
    /// service information flows again within one period.
    fn restart_resource(
        &mut self,
        sim: &mut Simulation<GridEvent>,
        c: &mut ChaosState,
        r: ResourceId,
        now: SimTime,
    ) {
        if !c.down[r.index()] {
            return;
        }
        c.down[r.index()] = false;
        let names = &self.names;
        self.telemetry.emit(now.ticks(), || Event::AgentUp {
            resource: names.name(r).to_string(),
        });
        self.trace_at(now, TraceKind::Info, r, |_| "restarted".to_string());
        if self.dispatch == DispatchMode::Discovery {
            if let AdvertisementStrategy::EventPush { .. } = self.advertisement {
                // Push mode has no standing chain: re-announce now.
                self.push_from_inner(sim, Some(c), r, now);
            }
        }
    }

    /// Planned elasticity: the resource leaves the grid gracefully. The
    /// contrast with [`GridSystem::crash_resource`] is the treatment of
    /// in-flight work — *queued* tasks are drained and re-placed through
    /// the recovery path, while *running* tasks execute to completion
    /// (their completion events still process on a down resource). The
    /// agent stops advertising and answering discovery, and its ACT is
    /// cleared, exactly as for a crash.
    fn scale_down_resource(
        &mut self,
        sim: &mut Simulation<GridEvent>,
        c: &mut ChaosState,
        r: ResourceId,
        now: SimTime,
    ) {
        if c.down[r.index()] {
            return;
        }
        c.down[r.index()] = true;
        let drained = self.schedulers[r.index()].drain_pending(now);
        let names = &self.names;
        let n_drained = drained.len() as u32;
        self.telemetry.emit(now.ticks(), || Event::ScaleDirective {
            resource: names.name(r).to_string(),
            up: false,
            drained: n_drained,
        });
        self.telemetry.emit(now.ticks(), || Event::AgentDown {
            resource: names.name(r).to_string(),
        });
        self.trace_at(now, TraceKind::Info, r, |_| {
            format!("scale-down (drained {n_drained} queued)")
        });
        self.hierarchy.agent_mut(r).clear_act();
        self.last_advertised[r.index()] = SimTime::ZERO;
        for task in drained {
            let idx = task.id.0 as usize;
            self.active_tasks = self.active_tasks.saturating_sub(1);
            if self.executors[idx].is_some_and(|e| e != self.origins[idx]) {
                self.migration_count -= 1;
            }
            self.executors[idx] = None;
            let i = c.task_request[idx];
            if c.reqs[i].lost_at.is_none() {
                c.reqs[i].lost_at = Some(now);
            }
            self.schedule_retry(sim, c, i, now);
        }
    }

    /// Planned elasticity: a scaled-down (or crashed) resource rejoins
    /// the grid with empty queues. Mirrors
    /// [`GridSystem::restart_resource`], plus a revival of any lapsed
    /// periodic chains so a rejoin into an idle served grid starts
    /// advertising again.
    fn scale_up_resource(
        &mut self,
        sim: &mut Simulation<GridEvent>,
        c: &mut ChaosState,
        r: ResourceId,
        now: SimTime,
    ) {
        if !c.down[r.index()] {
            return;
        }
        c.down[r.index()] = false;
        let names = &self.names;
        self.telemetry.emit(now.ticks(), || Event::ScaleDirective {
            resource: names.name(r).to_string(),
            up: true,
            drained: 0,
        });
        self.telemetry.emit(now.ticks(), || Event::AgentUp {
            resource: names.name(r).to_string(),
        });
        self.trace_at(now, TraceKind::Info, r, |_| "scale-up".to_string());
        if self.dispatch == DispatchMode::Discovery {
            match self.advertisement {
                AdvertisementStrategy::EventPush { .. } => {
                    // Push mode has no standing chain: re-announce now.
                    self.push_from_inner(sim, Some(c), r, now);
                }
                AdvertisementStrategy::PeriodicPull { .. } => {
                    if !self.pull_live[r.index()] {
                        sim.schedule(now, GridEvent::AdvertisementPull { agent: r });
                        self.pull_live[r.index()] = true;
                    }
                }
            }
        }
        if self.monitor_polls_enabled && !self.monitor_live[r.index()] {
            sim.schedule(now, GridEvent::MonitorPoll { resource: r });
            self.monitor_live[r.index()] = true;
        }
    }

    /// Drive one request attempt end to end (first arrival and every
    /// retry): check the origin is alive, walk discovery with the
    /// crash/link guards, and submit on success. Acknowledgement is
    /// implicit: a dispatch that reaches a live resource is accepted,
    /// one that does not comes back through the timeout/retry path.
    fn attempt_request(&mut self, sim: &mut Simulation<GridEvent>, i: usize, now: SimTime) {
        let Some(mut c) = self.chaos.take() else {
            return;
        };
        let origin = self.requests[i].agent;
        if c.down[origin.index()] {
            // The portal cannot even reach the submission agent.
            c.dropped_messages += 1;
            let names = &self.names;
            self.telemetry.emit(now.ticks(), || Event::MsgDropped {
                from: "portal".to_string(),
                to: names.name(origin).to_string(),
                what: "request".to_string(),
            });
            self.schedule_retry(sim, &mut c, i, now);
        } else if let Some((executor, task)) = self.route_chaos(sim, &mut c, i, now) {
            let id = task.id;
            let recovering = c.reqs[i].lost_at.take();
            if self.submit_to(sim, executor, task, now) {
                if let Some(lost) = recovering {
                    self.record_recovery(&mut c, id, executor, lost, now);
                }
                self.maybe_push_inner(sim, Some(&mut c), executor, now);
            } else {
                // The scheduler itself refused the task (e.g. an
                // unsupported environment): terminal, like the legacy
                // submit path.
                c.clear_outstanding(i);
            }
        }
        self.chaos = Some(c);
    }

    /// The discovery walk under chaos: identical to [`GridSystem::route`]
    /// except the task identity is stable across attempts, previously
    /// failed targets are pre-marked visited, and any hop onto a crashed
    /// resource or severed link aborts the attempt into the retry path.
    fn route_chaos(
        &mut self,
        sim: &mut Simulation<GridEvent>,
        c: &mut ChaosState,
        i: usize,
        now: SimTime,
    ) -> Option<(ResourceId, Task)> {
        let (id, task) = self.chaos_task(c, i, now);
        let origin = self.requests[i].agent;

        match self.dispatch {
            DispatchMode::Local => return Some((origin, task)),
            DispatchMode::Random => {
                let pick = ResourceId((split_mix(id.0) as usize % self.schedulers.len()) as u32);
                if c.down[pick.index()] {
                    self.fail_hop(sim, c, i, origin, pick, now);
                    return None;
                }
                return Some((pick, task));
            }
            DispatchMode::RoundRobin => {
                let pick = ResourceId((self.rr_counter % self.schedulers.len()) as u32);
                self.rr_counter += 1;
                if c.down[pick.index()] {
                    self.fail_hop(sim, c, i, origin, pick, now);
                    return None;
                }
                return Some((pick, task));
            }
            DispatchMode::Discovery => {}
        }

        let mut envelope = RequestEnvelope::new(Arc::clone(&self.requests[i].info)).with_task(id.0);
        for &failed in &c.reqs[i].excluded {
            envelope.visit(failed);
        }
        let app = Arc::clone(&task.app);
        let mut current = origin;
        loop {
            let decision = self.decide_at(current, &envelope, &app, now);
            match decision {
                DiscoveryDecision::ExecuteLocally { .. } => {
                    let hops = envelope.hops;
                    self.trace_at(now, TraceKind::Discovery, current, |_| {
                        format!("{id} executes locally after {hops} hops")
                    });
                    self.discovery_hops += envelope.hops as u64;
                    return Some((current, task));
                }
                DiscoveryDecision::Dispatch { to, .. } => {
                    if c.down[to.index()] || c.link_down.contains(&(current, to)) {
                        self.fail_hop(sim, c, i, current, to, now);
                        return None;
                    }
                    self.trace_at(now, TraceKind::Discovery, current, |names| {
                        format!("{id} dispatched to {}", names.name(to))
                    });
                    envelope.visit(current);
                    envelope.hops += 1;
                    let names = &self.names;
                    self.telemetry.emit(now.ticks(), || Event::TaskDispatch {
                        task: id.0,
                        from: names.name(current).to_string(),
                        to: names.name(to).to_string(),
                        hops: envelope.hops as u32,
                    });
                    current = to;
                }
                DiscoveryDecision::Escalate { to } => {
                    if c.down[to.index()] || c.link_down.contains(&(current, to)) {
                        self.fail_hop(sim, c, i, current, to, now);
                        return None;
                    }
                    self.trace_at(now, TraceKind::Discovery, current, |names| {
                        format!("{id} escalated to {}", names.name(to))
                    });
                    envelope.visit(current);
                    envelope.hops += 1;
                    let names = &self.names;
                    self.telemetry.emit(now.ticks(), || Event::EscalationHop {
                        task: id.0,
                        from: names.name(current).to_string(),
                        to: names.name(to).to_string(),
                    });
                    current = to;
                }
                DiscoveryDecision::Reject => {
                    self.rejected += 1;
                    self.trace_at(now, TraceKind::Discovery, current, |_| {
                        format!("{id} rejected: no available service")
                    });
                    let names = &self.names;
                    self.telemetry.emit(now.ticks(), || Event::TaskReject {
                        task: id.0,
                        resource: names.name(current).to_string(),
                    });
                    c.clear_outstanding(i);
                    return None;
                }
            }
        }
    }

    /// A discovery hop could not reach `to`: drop the message, remember
    /// the failed target so the next attempt routes around it, and back
    /// off into a retry.
    fn fail_hop(
        &mut self,
        sim: &mut Simulation<GridEvent>,
        c: &mut ChaosState,
        i: usize,
        from: ResourceId,
        to: ResourceId,
        now: SimTime,
    ) {
        self.drop_message(c, from, to, "dispatch", now);
        if !c.reqs[i].excluded.contains(&to) {
            c.reqs[i].excluded.push(to);
        }
        self.schedule_retry(sim, c, i, now);
    }

    /// The stable task identity of request `i`: allocated on the first
    /// routed attempt, reused (with a fresh arrival stamp) on retries so
    /// the completion-dedup set has exactly one id per request.
    fn chaos_task(&mut self, c: &mut ChaosState, i: usize, now: SimTime) -> (TaskId, Task) {
        let prep = &self.requests[i];
        let app = Arc::clone(
            prep.app
                .as_ref()
                .expect("unknown applications are rejected at arrival"),
        );
        let id = match c.reqs[i].task {
            Some(id) => id,
            None => {
                let id = TaskId(self.next_task);
                self.next_task += 1;
                debug_assert_eq!(self.origins.len(), id.0 as usize, "task ids are dense");
                self.origins.push(prep.agent);
                self.executors.push(None);
                c.completed_tasks.push(false);
                c.task_request.push(i);
                c.reqs[i].task = Some(id);
                id
            }
        };
        let deadline = self.requests[i].deadline;
        let environment = self.requests[i].environment;
        (id, Task::new(id, app, now, deadline, environment))
    }

    /// Arrange the next attempt for request `i` with exponential
    /// backoff (`timeout × 2^min(attempt-1, cap)`), or hand it to the
    /// failure policy once the budget is spent. The attempt counter is
    /// cumulative over the request's whole lifetime, crashes included.
    fn schedule_retry(
        &mut self,
        sim: &mut Simulation<GridEvent>,
        c: &mut ChaosState,
        i: usize,
        now: SimTime,
    ) {
        c.reqs[i].attempt += 1;
        let attempt = c.reqs[i].attempt;
        if attempt > c.max_retries {
            self.exhaust_request(sim, c, i, now);
            return;
        }
        let exp = (attempt - 1).min(c.backoff_cap).min(62);
        let delay = SimDuration::from_ticks(c.dispatch_timeout.ticks().saturating_mul(1u64 << exp));
        sim.schedule_in(delay, GridEvent::DispatchRetry { request: i as u32 });
    }

    /// The retry budget is spent: best-effort executes at the origin if
    /// it is alive, otherwise (or under [`FailurePolicy::Reject`]) the
    /// request is rejected for good.
    fn exhaust_request(
        &mut self,
        sim: &mut Simulation<GridEvent>,
        c: &mut ChaosState,
        i: usize,
        now: SimTime,
    ) {
        let (id, task) = self.chaos_task(c, i, now);
        let attempts = c.reqs[i].attempt;
        let origin = self.requests[i].agent;
        c.retries_exhausted += 1;
        let names = &self.names;
        self.telemetry.emit(now.ticks(), || Event::RetryExhausted {
            task: id.0,
            resource: names.name(origin).to_string(),
            attempts,
        });
        self.trace_at(now, TraceKind::Info, origin, |_| {
            format!("{id} retry budget exhausted after {attempts} attempts")
        });
        if self.failure_policy == FailurePolicy::BestEffort && !c.down[origin.index()] {
            let recovering = c.reqs[i].lost_at.take();
            if self.submit_to(sim, origin, task, now) {
                if let Some(lost) = recovering {
                    self.record_recovery(c, id, origin, lost, now);
                }
                self.maybe_push_inner(sim, Some(c), origin, now);
                return;
            }
        }
        self.rejected += 1;
        let names = &self.names;
        self.telemetry.emit(now.ticks(), || Event::TaskReject {
            task: id.0,
            resource: names.name(origin).to_string(),
        });
        c.clear_outstanding(i);
    }

    /// A lost task made it back into a scheduler: count the recovery
    /// and its loss-to-replacement latency.
    fn record_recovery(
        &self,
        c: &mut ChaosState,
        id: TaskId,
        executor: ResourceId,
        lost: SimTime,
        now: SimTime,
    ) {
        c.recovered += 1;
        let latency = now.saturating_since(lost);
        c.recovery_latency_ticks += latency.ticks();
        c.recovery_latency_max = c.recovery_latency_max.max(latency);
        let names = &self.names;
        self.telemetry.emit(now.ticks(), || Event::TaskRecovered {
            task: id.0,
            resource: names.name(executor).to_string(),
            latency: latency.ticks(),
        });
    }

    /// Mark a task completed in the dedup set and settle its request.
    fn settle_completion(&mut self, id: TaskId) {
        let Some(c) = self.chaos.as_mut() else {
            return;
        };
        c.completed_tasks[id.0 as usize] = true;
        let i = c.task_request[id.0 as usize];
        c.clear_outstanding(i);
    }

    /// A link-delayed advertisement arrives — or finds its receiver has
    /// crashed in the meantime.
    fn deliver_advert(&mut self, slot: usize, now: SimTime) {
        let Some(mut c) = self.chaos.take() else {
            return;
        };
        if let Some(adv) = c.delayed[slot].take() {
            c.free_slots.push(slot as u32);
            if c.down[adv.to.index()] {
                self.drop_message(&mut c, adv.from, adv.to, "advert", now);
            } else {
                let from = adv.from;
                self.trace_at(now, TraceKind::Advertisement, adv.to, |names| {
                    format!("delayed advert from {}", names.name(from))
                });
                // Only the Fig. 5 document itself was in flight: delayed
                // adverts carry no gossip table.
                self.deliver(adv.from, adv.to, adv.freetime, now, adv.push);
            }
        }
        self.chaos = Some(c);
    }

    /// `from`'s advertisement of `freetime` reaches `to`'s ACT at `now`.
    /// The legacy baseline rebuilds the document per message, so its rows
    /// are replaced rather than refreshed in place; the rows are equal
    /// either way.
    fn deliver(
        &mut self,
        from: ResourceId,
        to: ResourceId,
        freetime: SimTime,
        now: SimTime,
        push: bool,
    ) {
        let rebuilt;
        let info = if self.baseline {
            rebuilt = self.build_service_info(from, freetime);
            &rebuilt
        } else {
            &self.services[from.index()]
        };
        self.hierarchy
            .agent_mut(to)
            .receive_advertisement(from, info, freetime, now, push);
    }

    /// One discovery step at `current`, which evaluates its own live
    /// service information: its document with freetime stamped in place.
    fn decide_at(
        &mut self,
        current: ResourceId,
        envelope: &RequestEnvelope,
        app: &ApplicationModel,
        now: SimTime,
    ) -> DiscoveryDecision {
        let local = &mut self.services[current.index()];
        local.freetime = self.schedulers[current.index()].freetime(now);
        let agent = self.hierarchy.agent(current);
        agent.decide(envelope, app, local, now, &self.platforms, &self.engine)
    }

    /// Live service information of one resource (Fig. 5 content), by id.
    pub fn service_info_id(&self, id: ResourceId, now: SimTime) -> ServiceInfo {
        let freetime = self.schedulers[id.index()].freetime(now);
        if self.baseline {
            return self.build_service_info(id, freetime);
        }
        let mut info = self.services[id.index()].clone();
        info.freetime = freetime;
        info
    }

    /// Live service information of one resource, by name.
    pub fn service_info(&self, name: &str, now: SimTime) -> ServiceInfo {
        self.service_info_id(self.names.expect_id(name), now)
    }

    fn build_service_info(&self, id: ResourceId, freetime: SimTime) -> ServiceInfo {
        let s = &self.schedulers[id.index()];
        let host = format!("{}.grid.example.org", self.names.name(id).to_lowercase());
        ServiceInfo {
            agent: Endpoint::new(&host, 1000),
            local: Endpoint::new(&host, 10000),
            machine_type: s.resource().model().platform.name.as_str().into(),
            nproc: s.resource().nproc(),
            environments: s.supported_envs().to_vec().into(),
            freetime,
        }
    }

    /// Whether any requests are outstanding or any scheduler still has
    /// queued/running work (periodic events stop rescheduling once this
    /// turns false, which ends the run). O(1) via the active-task
    /// counter; falls back to the queue scan under baseline bookkeeping.
    pub fn work_remains(&self) -> bool {
        // Under chaos a request can be outstanding with every scheduler
        // queue empty (lost in a crash, waiting out a retry backoff) —
        // the periodic chains must survive such gaps.
        let chaos_outstanding = self.chaos.as_ref().is_some_and(|c| c.outstanding > 0);
        if self.baseline {
            return self.remaining_requests > 0 || chaos_outstanding || self.scan_work_remains();
        }
        debug_assert_eq!(
            self.active_tasks > 0,
            self.scan_work_remains(),
            "active-task counter diverged from the queue scan"
        );
        self.remaining_requests > 0 || chaos_outstanding || self.active_tasks > 0
    }

    fn scan_work_remains(&self) -> bool {
        self.schedulers
            .iter()
            .any(|s| s.queue_len() > 0 || s.running_len() > 0)
    }

    /// The interned name table shared by every layer of this grid.
    pub fn names(&self) -> &Arc<NameTable> {
        &self.names
    }

    /// The schedulers in id order (== lexicographic resource-name order).
    pub fn schedulers(&self) -> impl Iterator<Item = &SchedulerSystem> {
        self.schedulers.iter()
    }

    /// One scheduler by resource name.
    pub fn scheduler(&self, name: &str) -> Option<&SchedulerSystem> {
        self.names.id(name).map(|id| &self.schedulers[id.index()])
    }

    /// One scheduler by interned id.
    pub fn scheduler_by_id(&self, id: ResourceId) -> &SchedulerSystem {
        &self.schedulers[id.index()]
    }

    /// The agent hierarchy.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// One resource's availability monitor, by name (failure
    /// injection: scripted node outages reach the scheduler through its
    /// ordinary monitor polls, so the grid's bookkeeping stays valid).
    pub fn monitor_mut(&mut self, name: &str) -> Option<&mut ResourceMonitor> {
        let id = self.names.id(name)?;
        Some(self.schedulers[id.index()].monitor_mut())
    }

    /// The shared evaluation cache.
    pub fn engine(&self) -> &Arc<CachedEngine> {
        &self.engine
    }

    /// The latest completion instant across the grid (the observation
    /// horizon for metrics); zero when nothing ran. O(1) via a running
    /// max except under baseline bookkeeping.
    pub fn horizon(&self) -> SimTime {
        if self.baseline {
            return self.scan_horizon();
        }
        debug_assert_eq!(
            self.horizon_max,
            self.scan_horizon(),
            "horizon running max diverged from the completed-task scan"
        );
        self.horizon_max
    }

    fn scan_horizon(&self) -> SimTime {
        self.schedulers
            .iter()
            .flat_map(|s| s.completed().iter().map(|c| c.completion))
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// Tasks that executed on a different resource than the agent they
    /// were submitted to (the agent layer's redistribution). O(1) via a
    /// running counter except under baseline bookkeeping.
    pub fn migrations(&self) -> usize {
        if self.baseline {
            return self.scan_migrations();
        }
        debug_assert_eq!(
            self.migration_count,
            self.scan_migrations(),
            "migration counter diverged from the origin/executor scan"
        );
        self.migration_count
    }

    fn scan_migrations(&self) -> usize {
        self.executors
            .iter()
            .zip(&self.origins)
            .filter(|(e, o)| e.is_some_and(|e| e != **o))
            .count()
    }

    /// Requests that could not be placed anywhere.
    pub fn rejected(&self) -> usize {
        self.rejected
    }

    /// Completions observed for an already-completed task — the
    /// at-least-once dedup guard. Stays zero while the recovery
    /// bookkeeping is sound; the chaos tests assert exactly that.
    pub fn duplicate_completions(&self) -> u64 {
        self.chaos.as_ref().map_or(0, |c| c.duplicate_completions)
    }

    /// Fault-injection counters for the run; `None` when the configured
    /// [`FaultPlan`] was a no-op.
    pub fn chaos_stats(&self) -> Option<ChaosStats> {
        self.chaos.as_ref().map(|c| ChaosStats {
            crashes: c.crashes,
            dropped_messages: c.dropped_messages,
            recovered_tasks: c.recovered,
            retries_exhausted: c.retries_exhausted,
            recovery_latency_mean_s: if c.recovered > 0 {
                c.recovery_latency_ticks as f64 / c.recovered as f64 / 1e6
            } else {
                0.0
            },
            recovery_latency_max_s: c.recovery_latency_max.ticks() as f64 / 1e6,
        })
    }

    /// Advertisement messages exchanged.
    pub fn pull_messages(&self) -> u64 {
        self.pull_messages
    }

    /// Total agent-to-agent hops taken by placed requests (0 when the
    /// submission agent executed directly).
    pub fn discovery_hops(&self) -> u64 {
        self.discovery_hops
    }

    /// The event trace (empty unless tracing was enabled).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Which environments the workload may request (constant here, but
    /// part of the Fig. 5 surface).
    pub fn environments() -> [ExecEnv; 3] {
        [ExecEnv::Mpi, ExecEnv::Pvm, ExecEnv::Test]
    }

    // ---- live ingestion, elasticity and online tuning (serve mode) ------

    /// Inject one request into a running grid: the live-ingestion
    /// counterpart of [`GridSystem::bootstrap`]. The request is prepared
    /// exactly as at bootstrap and its [`GridEvent::Request`] scheduled
    /// at `r.at` (clamped to now), and any lapsed periodic chains are
    /// revived so an idle grid wakes up. Returns the request index, or
    /// an error for an unknown target agent.
    pub fn inject_request(
        &mut self,
        sim: &mut Simulation<GridEvent>,
        r: &GeneratedRequest,
    ) -> Result<usize, String> {
        let agent = self
            .names
            .id(&r.agent)
            .ok_or_else(|| format!("unknown agent {:?}", r.agent))?;
        let i = self.requests.len();
        self.requests.push(PreparedRequest {
            agent,
            app: self.apps.get(&r.application).cloned(),
            info: Arc::new(
                self.portal
                    .request(&r.application, r.environment, r.deadline),
            ),
            deadline: r.deadline,
            environment: r.environment,
        });
        self.remaining_requests += 1;
        if let Some(c) = self.chaos.as_mut() {
            c.reqs.push(ReqChaos::default());
        }
        sim.schedule(r.at.max(sim.now()), GridEvent::Request(i));
        self.revive_idle_chains(sim);
        Ok(i)
    }

    /// Append a planned scale directive to the fault timeline of a
    /// running grid, firing at `at` (clamped to now). Requires the
    /// recovery machinery ([`FaultPlan::with_recovery`] or any non-noop
    /// plan); errors on an unknown resource or a recovery-free grid.
    pub fn schedule_scale(
        &mut self,
        sim: &mut Simulation<GridEvent>,
        resource: &str,
        up: bool,
        at: SimTime,
    ) -> Result<(), String> {
        let id = self
            .names
            .id(resource)
            .ok_or_else(|| format!("unknown resource {resource:?}"))?;
        let c = self.chaos.as_mut().ok_or_else(|| {
            "elasticity needs the recovery machinery (FaultPlan::with_recovery)".to_string()
        })?;
        let index = c.timeline.len() as u32;
        c.timeline.push(ResolvedFault {
            at,
            kind: if up {
                FaultKind::ScaleUp(id)
            } else {
                FaultKind::ScaleDown(id)
            },
        });
        sim.schedule(at.max(sim.now()), GridEvent::Fault { index });
        self.revive_idle_chains(sim);
        Ok(())
    }

    /// Re-arm any periodic pull/monitor chain that lapsed while the grid
    /// was idle (chains stop rescheduling once `work_remains` turns
    /// false). Injection calls this so a served grid wakes back up; a
    /// batch run never goes idle with work pending, so this is a no-op
    /// there.
    pub fn revive_idle_chains(&mut self, sim: &mut Simulation<GridEvent>) {
        let now = sim.now();
        if self.dispatch == DispatchMode::Discovery {
            if let AdvertisementStrategy::PeriodicPull { .. } = self.advertisement {
                for agent in self.names.ids() {
                    if !self.pull_live[agent.index()] {
                        sim.schedule(now, GridEvent::AdvertisementPull { agent });
                        self.pull_live[agent.index()] = true;
                    }
                }
            }
        }
        if self.monitor_polls_enabled {
            for resource in self.names.ids() {
                if !self.monitor_live[resource.index()] {
                    sim.schedule(now, GridEvent::MonitorPoll { resource });
                    self.monitor_live[resource.index()] = true;
                }
            }
        }
    }

    /// The advertisement pull period in force, or `None` in push mode.
    pub fn pull_period(&self) -> Option<SimDuration> {
        match self.advertisement {
            AdvertisementStrategy::PeriodicPull { period } => Some(period),
            AdvertisementStrategy::EventPush { .. } => None,
        }
    }

    /// Adjust the advertisement pull period at runtime (the online
    /// tuner's knob; takes effect at each chain's next reschedule).
    /// Returns false in push mode. Clamped to at least one tick.
    pub fn set_pull_period(&mut self, period: SimDuration) -> bool {
        match &mut self.advertisement {
            AdvertisementStrategy::PeriodicPull { period: p } => {
                *p = period.max(SimDuration::from_ticks(1));
                true
            }
            AdvertisementStrategy::EventPush { .. } => false,
        }
    }

    /// The ACT entry TTL in force on every agent.
    pub fn act_ttl(&self) -> Option<SimDuration> {
        self.act_ttl
    }

    /// Set the ACT entry TTL on every agent at runtime (the online
    /// tuner's knob; `None` restores the paper's never-expire default).
    pub fn set_act_ttl(&mut self, ttl: Option<SimDuration>) {
        self.act_ttl = ttl;
        for id in self.names.ids() {
            self.hierarchy.agent_mut(id).set_act_ttl(ttl);
        }
    }

    /// The GA generation budget in force, or `None` for non-GA policies.
    pub fn ga_generations(&self) -> Option<usize> {
        self.schedulers.first().and_then(|s| s.ga_generations())
    }

    /// Adjust every scheduler's GA generation budget at runtime (the
    /// online tuner's knob; no-op returning false for non-GA policies).
    /// Search budget only — queue contents are untouched, so the
    /// incremental bookkeeping stays valid.
    pub fn set_ga_generations(&mut self, generations: usize) -> bool {
        let mut any = false;
        for s in &mut self.schedulers {
            any |= s.set_ga_generations(generations);
        }
        any
    }

    /// Tasks submitted to a scheduler and not yet completed.
    pub fn active_tasks(&self) -> usize {
        if self.baseline {
            return self
                .schedulers
                .iter()
                .map(|s| s.queue_len() + s.running_len())
                .sum();
        }
        self.active_tasks
    }

    /// Tasks queued (not yet started) across all schedulers.
    pub fn queued_tasks(&self) -> usize {
        self.schedulers.iter().map(|s| s.queue_len()).sum()
    }

    /// Tasks completed across all schedulers.
    pub fn completed_tasks(&self) -> usize {
        self.schedulers.iter().map(|s| s.completed().len()).sum()
    }

    /// Workload requests accepted so far (bootstrap plus injected).
    pub fn total_requests(&self) -> usize {
        self.requests.len()
    }

    /// Whether `name` is currently serving (not crashed or scaled
    /// down); `None` for unknown names.
    pub fn resource_online(&self, name: &str) -> Option<bool> {
        let id = self.names.id(name)?;
        Some(!self.chaos_down(id))
    }
}

/// `agents[a]` mutably and `agents[b]` shared, for `a != b`.
fn agent_pair(agents: &mut [Agent], a: ResourceId, b: ResourceId) -> (&mut Agent, &Agent) {
    let (a, b) = (a.index(), b.index());
    debug_assert_ne!(a, b, "an agent is not its own neighbour");
    if a < b {
        let (lo, hi) = agents.split_at_mut(b);
        (&mut lo[a], &hi[0])
    } else {
        let (lo, hi) = agents.split_at_mut(a);
        (&mut hi[0], &lo[b])
    }
}

/// SplitMix64 finaliser: a stateless, platform-stable hash used for the
/// blind random dispatch baseline.
fn split_mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}
