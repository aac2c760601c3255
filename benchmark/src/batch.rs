//! The three batch workloads: `table3`, `tree1365`, `dispatch85`.
//!
//! End-to-end, `table3` calls `run_table3`; the two tree shapes run a
//! harness-owned event loop (`bootstrap`, then `sim.step()` →
//! `grid.handle()`). The traced run uses the harness loop for all
//! three, wraps every `step` and `handle` in a span, and must reproduce
//! the untraced result byte for byte.

use crate::gate::{Completions, Gate};
use crate::run::{reps_for, untraced_base, EndToEndRun, Layers, RepLog};
use crate::spec;
use crate::stats::median;
use crate::trace::Tracer;
use agentgrid::prelude::*;
use agentgrid::{collect_result, grid_config, run_table3, GridEvent};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Batch {
    /// The paper's case study: 12 resources x 16 nodes, 600 requests at
    /// 1 s, all three Table 2 designs under `RunOptions::paper()`.
    Table3,
    /// `tree(6,4,8)`: 1365 agents, 10 920 requests at 1 s.
    Tree1365,
    /// `tree(4,4,16)`: 85 agents, 50 000 requests at 0.2 s.
    Dispatch85,
}

/// Everything a batch rep is built from.
pub struct Inputs {
    pub topology: GridTopology,
    pub workload: WorkloadConfig,
    pub opts: RunOptions,
    pub designs: Vec<ExperimentDesign>,
}

/// `RunOptions::paper()` with the parallelism pins made explicit.
pub fn pinned_options() -> RunOptions {
    let mut opts = RunOptions::paper();
    opts.shards = spec::SHARDS;
    opts.ga.threads = spec::GA_THREADS;
    opts.ga.islands = spec::GA_ISLANDS;
    opts
}

/// FIFO local queues, discovery on: the tree shapes measure the grid
/// layer, and a GA policy at these request counts measures only itself.
pub fn fifo_with_agents() -> ExperimentDesign {
    ExperimentDesign {
        number: 3,
        local_policy: LocalPolicy::Fifo,
        agents_enabled: true,
    }
}

impl Batch {
    pub fn inputs(self, seed: u64) -> Inputs {
        let (topology, requests, interarrival, designs) = match self {
            Batch::Table3 => (
                GridTopology::case_study(),
                600,
                SimDuration::from_secs(1),
                ExperimentDesign::table2().to_vec(),
            ),
            Batch::Tree1365 => (
                GridTopology::tree(6, 4, 8),
                10_920,
                SimDuration::from_secs(1),
                vec![fifo_with_agents()],
            ),
            Batch::Dispatch85 => (
                GridTopology::tree(4, 4, 16),
                50_000,
                SimDuration::from_secs_f64(0.2),
                vec![fifo_with_agents()],
            ),
        };
        let workload = WorkloadConfig {
            requests,
            interarrival,
            seed,
            agents: topology.names(),
            environment: ExecEnv::Test,
        };
        Inputs {
            topology,
            workload,
            opts: pinned_options(),
            designs,
        }
    }
}

/// Set-ups timed per `table3` rep.
const TABLE3_SETUPS: usize = 256;

/// A grid and a simulation ready for `bootstrap` with `requests` entries.
fn make_grid(
    inputs: &Inputs,
    design: &ExperimentDesign,
    opts: &RunOptions,
    requests: usize,
) -> (GridSystem, Simulation<GridEvent>) {
    let config = grid_config(design, inputs.workload.seed, opts);
    let grid = GridSystem::new(&inputs.topology, &opts.catalog, &config);
    let mut sim = Simulation::new();
    sim.set_telemetry(opts.telemetry.clone());
    // One Request per workload entry plus the initial pull chains.
    sim.reserve(requests + inputs.topology.resources.len() * 2);
    (grid, sim)
}

fn completions_of(grid: &GridSystem, requests: usize) -> Completions {
    Completions {
        requests: requests as u64,
        completed: grid.completed_tasks() as u64,
        rejected: grid.rejected() as u64,
        duplicates: grid.duplicate_completions(),
    }
}

/// One untraced rep: `(setup_s, wall_s, result JSON)`.
fn untraced_rep(kind: Batch, seed: u64, gate: &mut Gate, rep: usize) -> (f64, f64, String) {
    let what = format!("rep {rep}");
    if kind == Batch::Table3 {
        // `run_table3` builds its own grids, so set-up is what is left:
        // catalogue, topology, workload and options — some 20 µs, too
        // short to time once, so the rep's sample is a median of many.
        let mut setups = Vec::with_capacity(TABLE3_SETUPS);
        for _ in 0..TABLE3_SETUPS {
            let t = Instant::now();
            std::hint::black_box(kind.inputs(seed));
            setups.push(t.elapsed().as_secs_f64());
        }
        let setup_s = median(&setups);
        let inputs = kind.inputs(seed);
        let t = Instant::now();
        let results = run_table3(&inputs.topology, &inputs.workload, &inputs.opts);
        let wall_s = t.elapsed().as_secs_f64();
        for e in &results.experiments {
            gate.completions(
                &format!("{what} exp {}", e.design.number),
                Completions {
                    requests: e.requests as u64,
                    completed: e.total.tasks as u64,
                    rejected: e.rejected as u64,
                    duplicates: 0,
                },
            );
        }
        return (setup_s, wall_s, results.to_json());
    }
    let t = Instant::now();
    let inputs = kind.inputs(seed);
    let design = inputs.designs[0];
    let requests = inputs.workload.generate(&inputs.opts.catalog);
    let n = requests.len();
    let (mut grid, mut sim) = make_grid(&inputs, &design, &inputs.opts, n);
    let setup_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    grid.bootstrap(&mut sim, requests);
    while let Some(ev) = sim.step() {
        grid.handle(&mut sim, ev);
    }
    let wall_s = t.elapsed().as_secs_f64();
    gate.completions(&what, completions_of(&grid, n));
    let json = collect_result(&design, &inputs.topology, &grid, n).to_json();
    (setup_s, wall_s, json)
}

/// The end-to-end run: one warm-up rep, then timed reps for `seconds`.
pub fn run(kind: Batch, seed: u64, seconds: f64, gate: &mut Gate) -> EndToEndRun {
    let inputs = kind.inputs(seed);
    // Requests completed per rep: `table3` runs its 600 under each design.
    let requests = (inputs.workload.requests * inputs.designs.len()) as f64;
    let mut log = RepLog::default();
    let reps = reps_for(seconds, |rep, timed| {
        let (setup_s, wall_s, json) = untraced_rep(kind, seed, gate, rep);
        let values = [
            ("setup_s", setup_s),
            ("wall_s", wall_s),
            ("requests_per_s", requests / wall_s),
        ];
        log.record(gate, rep, timed, json, &values);
    });
    log.finish(reps)
}

/// Sums what the GA reports about itself over a traced run.
#[derive(Default)]
pub struct GaTally {
    evolves: AtomicU64,
    generations: AtomicU64,
    wall_us: AtomicU64,
    delta_positions: AtomicU64,
}

impl Recorder for GaTally {
    fn record(&self, _t: u64, event: Event) {
        match event {
            Event::GaEvolve {
                generations,
                wall_us,
                ..
            } => {
                self.evolves.fetch_add(1, Ordering::Relaxed);
                self.generations
                    .fetch_add(u64::from(generations), Ordering::Relaxed);
                self.wall_us.fetch_add(wall_us, Ordering::Relaxed);
            }
            Event::GaHotPath {
                delta_positions, ..
            } => {
                self.delta_positions
                    .fetch_add(delta_positions, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

impl GaTally {
    pub fn add_to(&self, layers: &mut Layers) {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64;
        layers.insert("scheduler.ga_evolves", get(&self.evolves));
        layers.insert("scheduler.ga_generations", get(&self.generations));
        layers.insert("scheduler.ga_wall_us", get(&self.wall_us));
        layers.insert("scheduler.delta_positions", get(&self.delta_positions));
    }
}

/// Exact counts summed over the experiments of a traced rep.
#[derive(Default)]
struct Counts {
    events: u64,
    pull_messages: u64,
    discovery_hops: u64,
    migrations: u64,
    cache_hits: u64,
    cache_misses: u64,
}

/// One experiment through the harness loop with spans on; returns the
/// result JSON value's source.
fn traced_experiment(
    inputs: &Inputs,
    design: &ExperimentDesign,
    opts: &RunOptions,
    tracer: &mut Tracer,
    root: usize,
    counts: &mut Counts,
    gate: &mut Gate,
) -> ExperimentResult {
    let setup = tracer.open("setup", Some(root));
    let requests = tracer.time("workload.generate", setup, || {
        inputs.workload.generate(&opts.catalog)
    });
    let n = requests.len();
    let (mut grid, mut sim) = tracer.time("core.new", setup, || make_grid(inputs, design, opts, n));
    tracer.close(setup);

    let step = tracer.name("sim.step");
    let on_request = tracer.name("core.handle_request");
    let on_complete = tracer.name("core.handle_complete");
    let on_pull = tracer.name("core.handle_pull");
    let on_other = tracer.name("core.handle_other");
    let bootstrap = tracer.name("core.bootstrap");

    // One timestamp chain: each span starts where the last ended, so the
    // clock reads are inside the spans and the loop leaves no gaps.
    let wall = tracer.open("wall", Some(root));
    let mut t = tracer.now_ns();
    grid.bootstrap(&mut sim, requests);
    let mut t1 = tracer.now_ns();
    tracer.leaf(bootstrap, t, t1, wall, None);
    t = t1;
    loop {
        let ev = sim.step();
        t1 = tracer.now_ns();
        tracer.leaf(step, t, t1, wall, None);
        let Some(ev) = ev else { break };
        let (name, request_id) = match ev {
            GridEvent::Request(i) => (on_request, Some(i as u64)),
            GridEvent::TaskComplete { id, .. } => (on_complete, Some(id.0)),
            GridEvent::AdvertisementPull { .. } => (on_pull, None),
            _ => (on_other, None),
        };
        grid.handle(&mut sim, ev);
        t = tracer.now_ns();
        tracer.leaf(name, t1, t, wall, request_id);
    }
    tracer.close(wall);

    // What `run_experiment` does after its loop.
    opts.telemetry
        .emit(sim.now().ticks(), || Event::EngineHorizon {
            horizon: grid.horizon().ticks(),
        });
    opts.telemetry.flush();
    gate.completions(
        &format!("traced exp {}", design.number),
        completions_of(&grid, n),
    );
    counts.events += sim.processed();
    counts.pull_messages += grid.pull_messages();
    counts.discovery_hops += grid.discovery_hops();
    counts.migrations += grid.migrations() as u64;
    let cache = grid.engine().stats();
    counts.cache_hits += cache.hits;
    counts.cache_misses += cache.misses;
    tracer.time("core.collect_result", root, || {
        collect_result(design, &inputs.topology, &grid, n)
    })
}

/// The traced run: a few untraced reps for the base and the reference
/// result, then one rep with spans, the invariant checker and the GA
/// tally attached.
pub fn run_traced(kind: Batch, seed: u64, gate: &mut Gate, tracer: &mut Tracer) -> Layers {
    let (base_s, reference) = untraced_base(|rep| {
        let (_, wall_s, json) = untraced_rep(kind, seed, gate, rep);
        Ok((wall_s, json))
    })
    .expect("batch reps do not fail");

    let checker = Arc::new(InvariantRecorder::strict());
    let tally = Arc::new(GaTally::default());
    let sinks: Vec<Arc<dyn Recorder>> = vec![checker.clone(), tally.clone()];
    let inputs = kind.inputs(seed);
    let mut opts = inputs.opts.clone();
    opts.telemetry = Telemetry::new(Arc::new(MultiRecorder::new(sinks)));

    let root = tracer.open("rep", None);
    let mut counts = Counts::default();
    let results: Vec<ExperimentResult> = inputs
        .designs
        .iter()
        .map(|d| traced_experiment(&inputs, d, &opts, tracer, root, &mut counts, gate))
        .collect();
    tracer.close(root);

    let json = if kind == Batch::Table3 {
        CaseStudyResults {
            experiments: results,
        }
        .to_json()
    } else {
        results[0].to_json()
    };
    gate.identical("traced vs untraced result", &reference, &json);
    gate.require(checker.is_clean(), || {
        format!("invariant checker: {}", checker.report().trim_end())
    });

    let mut layers = Layers::new();
    let wall = tracer.total("wall");
    let covered: u64 = [
        "core.bootstrap",
        "sim.step",
        "core.handle_request",
        "core.handle_complete",
        "core.handle_pull",
        "core.handle_other",
    ]
    .iter()
    .map(|n| tracer.total(n).ns)
    .sum();
    layers.insert("trace.coverage", covered as f64 / wall.ns.max(1) as f64);
    layers.insert("trace.overhead", wall.ns as f64 / 1e9 / base_s);
    for (metric, span) in [
        ("sim.step_ns", "sim.step"),
        ("core.handle_pull_ns", "core.handle_pull"),
        ("core.handle_request_ns", "core.handle_request"),
        ("core.handle_complete_ns", "core.handle_complete"),
        ("core.handle_other_ns", "core.handle_other"),
        ("core.bootstrap_ns", "core.bootstrap"),
        ("core.collect_result_ns", "core.collect_result"),
        ("workload.generate_ns", "workload.generate"),
    ] {
        layers.insert(metric, tracer.total(span).ns as f64);
    }
    layers.insert("core.pulls", tracer.total("core.handle_pull").count as f64);
    layers.insert(
        "core.requests",
        tracer.total("core.handle_request").count as f64,
    );
    layers.insert(
        "core.completions",
        tracer.total("core.handle_complete").count as f64,
    );
    layers.insert("sim.events", counts.events as f64);
    layers.insert("agents.pull_messages", counts.pull_messages as f64);
    layers.insert("agents.discovery_hops", counts.discovery_hops as f64);
    layers.insert("core.migrations", counts.migrations as f64);
    layers.insert("pace.cache_hits", counts.cache_hits as f64);
    layers.insert("pace.cache_misses", counts.cache_misses as f64);
    let lookups = counts.cache_hits + counts.cache_misses;
    layers.insert(
        "pace.hit_ratio",
        counts.cache_hits as f64 / lookups.max(1) as f64,
    );
    tally.add_to(&mut layers);
    layers
}
