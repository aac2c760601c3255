//! The case-study experiment driver (paper §4).
//!
//! [`run_experiment`] executes one Table 2 configuration over a workload;
//! [`run_table3`] runs all three with the identical (same-seed) workload,
//! exactly as the paper does, producing the data behind Table 3 and
//! Figs. 8–10.

use crate::chaos::FaultPlan;
use crate::grid::{GridConfig, GridSystem};
use crate::result::{CaseStudyResults, ExperimentResult, ResourceRow};
use crate::shard::ShardRunner;
use agentgrid_agents::{AdvertisementStrategy, FailurePolicy, MatchmakerKind};
use agentgrid_metrics::{compute, compute_grid, ResourceStats};
use agentgrid_pace::{Catalog, NoiseModel};
use agentgrid_scheduler::GaConfig;
#[cfg(test)]
use agentgrid_sim::SimDuration;
use agentgrid_sim::Simulation;
use agentgrid_telemetry::{Event, Telemetry};
use agentgrid_workload::{ExperimentDesign, GridTopology, WorkloadConfig};

/// Knobs of an experiment run that are not part of the Table 2 design.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// The application catalogue requests may name.
    pub catalog: Catalog,
    /// GA tuning for GA-policy experiments.
    pub ga: GaConfig,
    /// Head-of-hierarchy failure policy (the case study needs
    /// [`FailurePolicy::BestEffort`] so all 600 tasks run).
    pub failure_policy: FailurePolicy,
    /// Advertisement strategy (paper: 10-second periodic pull).
    pub advertisement: AdvertisementStrategy,
    /// Matchmaking rule agents rank advertised services with (paper:
    /// eq. 10 freetime completion).
    pub matchmaker: MatchmakerKind,
    /// Record a full event trace (costs memory; off for big runs).
    pub trace: bool,
    /// Prediction-error model (`Exact` = the paper's test mode; other
    /// values drive the accuracy-sensitivity experiments).
    pub noise: NoiseModel,
    /// Advertisements also carry the sender's capability table (gossip).
    pub gossip: bool,
    /// Structured telemetry sink; disabled by default (zero overhead).
    pub telemetry: Telemetry,
    /// Fault-injection plan; the default empty plan is a strict no-op.
    pub chaos: FaultPlan,
    /// Hard cap on delivered sim events (`None` = unlimited). A livelock
    /// guard for fuzzing: a run that exceeds it panics with a clear
    /// message instead of spinning forever.
    pub step_limit: Option<u64>,
    /// Agent-subtree shards the event loop batches advertisement pulls
    /// over (DESIGN.md §13). `1` (the default) is the plain sequential
    /// loop; any value yields bit-identical results — sharding moves
    /// cost, never outcomes.
    pub shards: usize,
    /// Worker threads for shard batches (`None` = available
    /// parallelism, capped at the shard count). Performance-only: the
    /// merge barrier makes results independent of the thread count.
    pub shard_workers: Option<usize>,
}

impl RunOptions {
    /// The paper's configuration: case-study catalogue, default GA,
    /// best-effort placement, 10-second pulls.
    pub fn paper() -> RunOptions {
        RunOptions {
            catalog: Catalog::case_study(),
            ga: GaConfig::default(),
            failure_policy: FailurePolicy::BestEffort,
            advertisement: AdvertisementStrategy::default(),
            matchmaker: MatchmakerKind::default(),
            trace: false,
            noise: NoiseModel::Exact,
            gossip: false,
            telemetry: Telemetry::disabled(),
            chaos: FaultPlan::none(),
            step_limit: None,
            shards: 1,
            shard_workers: None,
        }
    }

    /// A reduced configuration for tests, examples and doctests: smaller
    /// GA population and generation budget — same behaviour, far less
    /// compute.
    pub fn fast() -> RunOptions {
        RunOptions {
            ga: GaConfig {
                population: 16,
                generations_per_event: 12,
                stall_generations: 5,
                ..GaConfig::default()
            },
            ..RunOptions::paper()
        }
    }
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions::paper()
    }
}

/// Thread-local recycling pool for grid event queues. Serve mode and
/// batch sweeps build a fresh [`Simulation`] per run; recycling the
/// queue keeps the timing wheel's slot, ready and overflow allocations
/// warm across runs.
pub mod queue_pool {
    use crate::grid::GridEvent;
    use agentgrid_sim::{EventQueue, Simulation};
    use std::cell::RefCell;

    /// Queues kept warm per thread (more would just pin memory).
    const POOL_CAP: usize = 4;

    thread_local! {
        static POOL: RefCell<Vec<EventQueue<GridEvent>>> = const { RefCell::new(Vec::new()) };
    }

    /// A reset queue with warm allocations, or a fresh one.
    pub fn take() -> EventQueue<GridEvent> {
        POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default()
    }

    /// Recover a finished simulation's queue for later [`take`]s.
    pub fn give(sim: Simulation<GridEvent>) {
        let queue = sim.into_queue();
        POOL.with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() < POOL_CAP {
                pool.push(queue);
            }
        });
    }
}

/// Run one experiment configuration over one workload and report the
/// §3.3 metrics.
pub fn run_experiment(
    design: &ExperimentDesign,
    topology: &GridTopology,
    workload: &WorkloadConfig,
    opts: &RunOptions,
) -> ExperimentResult {
    let config = grid_config(design, workload.seed, opts);
    let mut grid = GridSystem::new(topology, &opts.catalog, &config);
    let requests = workload.generate(&opts.catalog);
    let n_requests = requests.len();

    let mut sim = Simulation::with_queue(queue_pool::take());
    sim.set_telemetry(opts.telemetry.clone());
    if let Some(limit) = opts.step_limit {
        sim.set_step_limit(limit);
    }
    // Pre-size for the bootstrap burst: one Request per workload entry
    // plus the initial pull/monitor chains per resource.
    sim.reserve(n_requests + topology.resources.len() * 2);
    grid.bootstrap(&mut sim, requests);
    if opts.shards > 1 {
        let mut runner = ShardRunner::new(opts.shards, opts.shard_workers);
        while runner.pump(&mut grid, &mut sim, None, true) > 0 {}
    } else {
        while let Some(ev) = sim.step() {
            grid.handle(&mut sim, ev);
        }
    }
    assert!(
        !sim.step_limit_reached(),
        "simulation exceeded the step limit of {:?} events (possible livelock)",
        opts.step_limit
    );
    debug_assert!(!grid.work_remains(), "run ended with work outstanding");

    let final_now = sim.now().ticks();
    queue_pool::give(sim);
    opts.telemetry.emit(final_now, || Event::EngineHorizon {
        horizon: grid.horizon().ticks(),
    });
    opts.telemetry.flush();

    collect_result(design, topology, &grid, n_requests)
}

/// Assemble the [`GridConfig`] for one experiment design — the exact
/// mapping [`run_experiment`] uses, exposed so other drivers (serve
/// mode) produce bit-identical grids.
pub fn grid_config(design: &ExperimentDesign, seed: u64, opts: &RunOptions) -> GridConfig {
    GridConfig {
        policy: design.local_policy,
        ga: opts.ga,
        dispatch: if design.agents_enabled {
            crate::grid::DispatchMode::Discovery
        } else {
            crate::grid::DispatchMode::Local
        },
        failure_policy: opts.failure_policy,
        advertisement: opts.advertisement,
        matchmaker: opts.matchmaker,
        seed,
        trace: opts.trace,
        noise: opts.noise,
        gossip: opts.gossip,
        telemetry: opts.telemetry.clone(),
        chaos: opts.chaos.clone(),
    }
}

/// Build the metrics report from a finished grid — public so serve mode
/// can report the identical [`ExperimentResult`] a batch run would.
pub fn collect_result(
    design: &ExperimentDesign,
    topology: &GridTopology,
    grid: &GridSystem,
    n_requests: usize,
) -> ExperimentResult {
    // The observation window runs to the latest completion anywhere on
    // the grid; a backlogged SPARCstation stretches it for everyone,
    // which is exactly how the paper's low Exp-1 utilisations arise.
    let horizon = grid.horizon();
    let horizon_s = horizon.as_secs_f64().max(1e-9);

    let mut all_stats = Vec::new();
    let mut per_resource = Vec::new();
    for spec in &topology.resources {
        let s = grid
            .scheduler(&spec.name)
            .expect("scheduler per topology resource");
        let stats = ResourceStats::from_run(
            &spec.name,
            spec.nproc,
            s.resource().allocations(),
            s.completed(),
            horizon,
        );
        per_resource.push(ResourceRow {
            name: spec.name.clone(),
            metrics: compute(&stats, horizon_s),
        });
        all_stats.push(stats);
    }
    let total = compute_grid(&all_stats, horizon_s);

    ExperimentResult {
        design: *design,
        per_resource,
        total,
        horizon_s,
        requests: n_requests,
        rejected: grid.rejected(),
        migrations: grid.migrations(),
        pull_messages: grid.pull_messages(),
        cache_hit_ratio: grid.engine().stats().hit_ratio(),
    }
}

/// Run all three Table 2 experiments over the identical workload ("the
/// seed is set to the same so that the workload for each experiment is
/// identical").
pub fn run_table3(
    topology: &GridTopology,
    workload: &WorkloadConfig,
    opts: &RunOptions,
) -> CaseStudyResults {
    let experiments = ExperimentDesign::table2()
        .iter()
        .map(|design| run_experiment(design, topology, workload, opts))
        .collect();
    CaseStudyResults { experiments }
}

/// [`run_table3`] with the three experiments on their own OS threads.
/// Each experiment owns an independent `GridSystem` and RNG streams
/// derived only from the seed, so the results are bit-identical to the
/// sequential form — asserted by an integration test — at roughly the
/// wall time of the slowest experiment.
pub fn run_table3_parallel(
    topology: &GridTopology,
    workload: &WorkloadConfig,
    opts: &RunOptions,
) -> CaseStudyResults {
    let designs = ExperimentDesign::table2();
    let mut slots: Vec<Option<ExperimentResult>> = vec![None, None, None];
    std::thread::scope(|scope| {
        let handles: Vec<_> = designs
            .iter()
            .map(|design| scope.spawn(move || run_experiment(design, topology, workload, opts)))
            .collect();
        for (slot, handle) in slots.iter_mut().zip(handles) {
            *slot = Some(handle.join().expect("experiment thread panicked"));
        }
    });
    CaseStudyResults {
        experiments: slots
            .into_iter()
            .map(|s| s.expect("every slot filled"))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agentgrid_cluster::ExecEnv;

    fn small_workload(agents: Vec<String>, n: usize) -> WorkloadConfig {
        WorkloadConfig {
            requests: n,
            interarrival: SimDuration::from_secs(1),
            seed: 11,
            agents,
            environment: ExecEnv::Test,
        }
    }

    #[test]
    fn fifo_experiment_completes_all_tasks() {
        let topology = GridTopology::flat(2, 4);
        let wl = small_workload(topology.names(), 12);
        let r = run_experiment(
            &ExperimentDesign::experiment1(),
            &topology,
            &wl,
            &RunOptions::fast(),
        );
        assert_eq!(r.total.tasks, 12);
        assert_eq!(r.rejected, 0);
        assert_eq!(r.per_resource.len(), 2);
        assert!(r.horizon_s > 0.0);
    }

    #[test]
    fn ga_experiment_completes_all_tasks() {
        let topology = GridTopology::flat(2, 4);
        let wl = small_workload(topology.names(), 12);
        let r = run_experiment(
            &ExperimentDesign::experiment2(),
            &topology,
            &wl,
            &RunOptions::fast(),
        );
        assert_eq!(r.total.tasks, 12);
        assert_eq!(r.migrations, 0, "no agents, no migration");
    }

    #[test]
    fn agent_experiment_migrates_work() {
        // One fast big resource and one tiny one: discovery must move
        // load towards capacity.
        use agentgrid_pace::Platform;
        use agentgrid_workload::ResourceSpec;
        let topology = GridTopology {
            resources: vec![
                ResourceSpec {
                    name: "big".into(),
                    platform: Platform::sgi_origin2000(),
                    nproc: 16,
                    parent: None,
                },
                ResourceSpec {
                    name: "small".into(),
                    platform: Platform::sun_sparcstation2(),
                    nproc: 2,
                    parent: Some("big".into()),
                },
            ],
        };
        // All requests hit the small resource.
        let wl = WorkloadConfig {
            requests: 16,
            interarrival: SimDuration::from_secs(1),
            seed: 3,
            agents: vec!["small".into()],
            environment: ExecEnv::Test,
        };
        let r = run_experiment(
            &ExperimentDesign::experiment3(),
            &topology,
            &wl,
            &RunOptions::fast(),
        );
        assert_eq!(r.total.tasks, 16);
        assert!(r.migrations > 0, "agents should offload the small resource");
        assert!(r.pull_messages > 0);
    }

    #[test]
    fn table3_runs_all_three_designs() {
        let topology = GridTopology::flat(2, 2);
        let wl = small_workload(topology.names(), 8);
        let cs = run_table3(&topology, &wl, &RunOptions::fast());
        assert_eq!(cs.experiments.len(), 3);
        assert_eq!(cs.experiments[0].design.number, 1);
        assert_eq!(cs.experiments[2].design.number, 3);
        // Identical workload in each experiment.
        for e in &cs.experiments {
            assert_eq!(e.requests, 8);
        }
        let table = cs.table3();
        assert!(table.contains("Total"));
    }

    #[test]
    fn cache_is_exercised() {
        let topology = GridTopology::flat(1, 4);
        let wl = small_workload(topology.names(), 10);
        let r = run_experiment(
            &ExperimentDesign::experiment2(),
            &topology,
            &wl,
            &RunOptions::fast(),
        );
        assert!(
            r.cache_hit_ratio > 0.5,
            "GA evaluation redundancy should hit the cache, got {}",
            r.cache_hit_ratio
        );
    }
}
