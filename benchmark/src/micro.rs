//! Micro-spans: direct calls into one layer's public function on inputs
//! taken from the workload, reported as ns per operation.
//!
//! They size the pieces the loop spans cannot see inside (`ingest`,
//! `handle`, `evolve`). They run only in the traced run and move no
//! end-to-end number by themselves.

use crate::batch::{fifo_with_agents, pinned_options};
use crate::run::Layers;
use crate::serve_live::post_to;
use agentgrid::prelude::*;
use agentgrid::{grid_config, GridEvent};
use agentgrid_agents::estimate;
use agentgrid_scheduler::decode::{decode_into, DecodeScratch, ResourceView};
use agentgrid_scheduler::{
    AnnealingPolicy, HeuristicPolicy, HeuristicRule, LocalPolicy as PlannedPolicy, SaConfig,
    Solution,
};
use agentgrid_serve::wal::BATCH_SYNC_EVERY;
use agentgrid_serve::{
    canonical_line, parse_line, read_wal, spawn_listener, write_request, AdmissionQueue, ServeLine,
    ServeShared, SyncPolicy, WalWriter,
};
use agentgrid_sim::EventQueue;
use agentgrid_workload::GeneratedRequest;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the micro-spans are fed: the workload's own topology and requests.
pub struct MicroInputs {
    pub topology: GridTopology,
    pub requests: Vec<GeneratedRequest>,
    pub seed: u64,
}

/// Shortest time one micro-span measures for.
const MIN_TIME: Duration = Duration::from_millis(40);

/// Mean ns per call of `op`: batches of `batch` calls until at least
/// `min_ops` calls and [`MIN_TIME`] are in.
fn per_op(batch: u64, min_ops: u64, mut op: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut ops = 0;
    while ops < min_ops || start.elapsed() < MIN_TIME {
        for _ in 0..batch {
            op();
        }
        ops += batch;
    }
    start.elapsed().as_nanos() as f64 / ops as f64
}

fn tasks_from(requests: &[GeneratedRequest], catalog: &Catalog, n: usize) -> Vec<Task> {
    requests
        .iter()
        .cycle()
        .take(n)
        .enumerate()
        .map(|(i, r)| {
            let app = catalog
                .by_name(&r.application)
                .expect("generated from this catalogue");
            // Deadlines relative to arrival, as a queue planned at t=0 sees them.
            let relative = SimTime::from_ticks(r.deadline.ticks() - r.at.ticks());
            Task::new(
                TaskId(i as u64),
                Arc::new(app.clone()),
                SimTime::ZERO,
                relative,
                r.environment,
            )
        })
        .collect()
}

fn sim_queue(inputs: &MicroInputs, layers: &mut Layers) {
    const N: usize = 50_000;
    let times: Vec<SimTime> = inputs
        .requests
        .iter()
        .map(|r| r.at)
        .cycle()
        .take(N)
        .collect();
    let (mut push_ns, mut pop_ns, mut rounds) = (0u128, 0u128, 0u128);
    let start = Instant::now();
    while rounds < 2 || start.elapsed() < MIN_TIME {
        let mut queue: EventQueue<GridEvent> = EventQueue::new();
        let t = Instant::now();
        for (i, at) in times.iter().enumerate() {
            queue.push(*at, GridEvent::Request(i));
        }
        push_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        while let Some(entry) = queue.pop() {
            black_box(entry);
        }
        pop_ns += t.elapsed().as_nanos();
        rounds += 1;
    }
    let ops = (rounds * N as u128) as f64;
    layers.insert("sim.queue_push_ns", push_ns as f64 / ops);
    layers.insert("sim.queue_pop_ns", pop_ns as f64 / ops);
}

/// Agents with the capability tables a running grid gives them: a small
/// grid is run past three pull periods and its busiest reader is used.
fn agents(inputs: &MicroInputs, catalog: &Catalog, layers: &mut Layers) {
    let design = fifo_with_agents();
    let opts = pinned_options();
    let config = grid_config(&design, inputs.seed, &opts);
    let mut grid = GridSystem::new(&inputs.topology, catalog, &config);
    let mut sim = Simulation::new();
    let head: Vec<GeneratedRequest> = inputs.requests.iter().take(200).cloned().collect();
    grid.bootstrap(&mut sim, head);
    while sim.peek_at().is_some_and(|at| at <= SimTime::from_secs(35)) {
        let ev = sim.step().expect("peeked");
        grid.handle(&mut sim, ev);
    }
    let now = sim.now();
    let hierarchy = grid.hierarchy();
    let reader = hierarchy
        .ids()
        .max_by_key(|id| hierarchy.agent(*id).act().len())
        .expect("a grid has agents");
    let agent = hierarchy.agent(reader).clone();
    let local = grid.service_info_id(reader, now);
    let mut platforms: Vec<Platform> = Vec::new();
    for spec in &inputs.topology.resources {
        if !platforms.iter().any(|p| p.name == spec.platform.name) {
            platforms.push(spec.platform.clone());
        }
    }
    let engine = grid.engine().clone();
    let portal = Portal::new("ledger@example.org");
    let envelopes: Vec<(RequestEnvelope, &ApplicationModel)> = inputs
        .requests
        .iter()
        .take(64)
        .map(|r| {
            // A deadline no one can meet walks the whole table: the
            // read-heavy case `dispatch85` stresses.
            let info = portal.request(&r.application, r.environment, now);
            let app = catalog.by_name(&r.application).expect("catalogue app");
            (RequestEnvelope::new(info), app)
        })
        .collect();

    let mut i = 0;
    layers.insert(
        "agents.decide_ns",
        per_op(64, 10_000, || {
            let (envelope, app) = &envelopes[i % envelopes.len()];
            black_box(agent.decide(envelope, app, &local, now, &platforms, &engine));
            i += 1;
        }),
    );
    let (envelope, app) = &envelopes[0];
    layers.insert(
        "agents.estimate_ns",
        per_op(256, 10_000, || {
            black_box(
                estimate(
                    &local,
                    app,
                    envelope.request.environment,
                    envelope.request.deadline,
                    now,
                    &platforms,
                    &engine,
                )
                .is_ok(),
            );
        }),
    );
    let mut writer = agent.clone();
    let from = writer.neighbour_ids().next().unwrap_or(reader);
    layers.insert(
        "agents.update_act_ns",
        per_op(256, 10_000, || writer.update_act(from, local.clone(), now)),
    );
}

fn scheduler(inputs: &MicroInputs, catalog: &Catalog, layers: &mut Layers) {
    let spec = &inputs.topology.resources[0];
    let resource = GridResource::new(&spec.name, spec.platform.clone(), spec.nproc);
    let view = ResourceView::snapshot(&resource, SimTime::ZERO).expect("all nodes up");
    let engine = CachedEngine::new();
    let ga = pinned_options().ga;
    let rng = || RngStream::root(inputs.seed).derive(&spec.name);
    let q10 = tasks_from(&inputs.requests, catalog, 10);
    let q40 = tasks_from(&inputs.requests, catalog, 40);

    for (metric, tasks) in [
        ("scheduler.evolve_q10_ns", &q10),
        ("scheduler.evolve_q40_ns", &q40),
    ] {
        layers.insert(
            metric,
            per_op(1, 8, || {
                let mut scheduler = GaScheduler::new(ga, rng());
                black_box(scheduler.evolve(&view, tasks, &engine).cost);
            }),
        );
    }

    let mut draw = rng();
    let solutions: Vec<Solution> = (0..64)
        .map(|_| Solution::random(q40.len(), view.model.nproc, &mut draw))
        .collect();
    let mut scratch = DecodeScratch::default();
    let mut i = 0;
    layers.insert(
        "scheduler.decode_q40_ns",
        per_op(64, 10_000, || {
            let s = &solutions[i % solutions.len()];
            black_box(decode_into(&view, &q40, s, &engine, &mut scratch).makespan);
            i += 1;
        }),
    );

    let mut minmin = HeuristicPolicy::new(HeuristicRule::MinMin);
    layers.insert(
        "scheduler.plan_minmin_q40_ns",
        per_op(1, 8, || {
            black_box(minmin.plan(&view, &q40, &engine).cost);
        }),
    );
    let mut anneal = AnnealingPolicy::new(SaConfig::default(), rng());
    layers.insert(
        "scheduler.plan_anneal_q40_ns",
        per_op(1, 8, || {
            black_box(anneal.plan(&view, &q40, &engine).cost);
        }),
    );

    // A FIFO submit is a search over the node free times; a fresh
    // scheduler every 512 tasks keeps the queue at a workload-like depth.
    let tasks = tasks_from(&inputs.requests, catalog, 512);
    let shared = Arc::new(CachedEngine::new());
    let mut fifo = None;
    let mut i = 0;
    layers.insert(
        "scheduler.fifo_submit_ns",
        per_op(512, 10_000, || {
            if i % tasks.len() == 0 {
                let resource = GridResource::new(&spec.name, spec.platform.clone(), spec.nproc);
                fifo = Some(SchedulerSystem::new(
                    resource,
                    PolicyConfig::Fifo,
                    shared.clone(),
                    rng(),
                ));
            }
            let task = tasks[i % tasks.len()].clone();
            let started = fifo
                .as_mut()
                .expect("just built")
                .submit(task, SimTime::ZERO);
            black_box(started.is_ok());
            i += 1;
        }),
    );
}

fn pace(inputs: &MicroInputs, catalog: &Catalog, layers: &mut Layers) {
    let spec = &inputs.topology.resources[0];
    let model = ResourceModel::new(spec.platform.clone(), spec.nproc).expect("nproc >= 1");
    let engine = CachedEngine::new();
    let apps = catalog.apps();
    let keys: Vec<(&ApplicationModel, usize)> = apps
        .iter()
        .flat_map(|a| (1..=spec.nproc).map(move |k| (a, k)))
        .collect();
    for (app, k) in &keys {
        engine.evaluate(app, &model, *k);
    }
    let mut i = 0;
    layers.insert(
        "pace.evaluate_hit_ns",
        per_op(1024, 10_000, || {
            let (app, k) = keys[i % keys.len()];
            black_box(engine.evaluate(app, &model, k));
            i += 1;
        }),
    );
    // A miss is the first evaluation of a key: empty the cache before
    // each sweep over the keys (the clear is one call per sweep).
    let sweep = keys.len() as u64;
    let mut i = 0;
    layers.insert(
        "pace.evaluate_miss_ns",
        per_op(sweep, 10_000, || {
            if i % keys.len() == 0 {
                engine.invalidate();
            }
            let (app, k) = keys[i % keys.len()];
            black_box(engine.evaluate(app, &model, k));
            i += 1;
        }),
    );
}

fn serve(
    inputs: &MicroInputs,
    catalog: &Catalog,
    out_dir: &str,
    layers: &mut Layers,
) -> Result<(), String> {
    let texts: Vec<String> = inputs
        .requests
        .iter()
        .take(4096)
        .map(write_request)
        .collect();
    let lines: Vec<ServeLine> = inputs
        .requests
        .iter()
        .take(4096)
        .map(|r| ServeLine::Request(r.clone()))
        .collect();
    let mut i = 0;
    layers.insert(
        "serve.parse_line_ns",
        per_op(256, 10_000, || {
            black_box(parse_line(&texts[i % texts.len()], SimTime::ZERO).is_ok());
            i += 1;
        }),
    );
    let mut i = 0;
    layers.insert(
        "serve.canonical_line_ns",
        per_op(256, 10_000, || {
            black_box(canonical_line(&lines[i % lines.len()]));
            i += 1;
        }),
    );

    // WAL: appends with sync off, then the fsync a `batch` policy pays
    // every 64 appends — a disk figure, host-dependent, labelled so.
    let path = format!("{out_dir}/micro.wal");
    let fresh = |policy| -> Result<WalWriter, String> {
        let _ = std::fs::remove_file(&path);
        WalWriter::resume(&path, policy, &Default::default()).map_err(|e| format!("{path}: {e}"))
    };
    let mut wal = fresh(SyncPolicy::Off)?;
    let mut i = 0;
    let mut failed = false;
    layers.insert(
        "serve.wal_append_ns",
        per_op(256, 10_000, || {
            failed |= wal.append(&texts[i % texts.len()]).is_err();
            i += 1;
        }),
    );
    let records = wal.seq();
    drop(wal);
    let t = Instant::now();
    let recovery = read_wal(&path).map_err(|e| format!("{path}: {e}"))?;
    let read_ns = t.elapsed().as_nanos() as f64;
    if failed || recovery.last_seq() != records {
        return Err(format!(
            "{path}: appended {records} records, read {}",
            recovery.last_seq()
        ));
    }
    // Scaled to the 50 000 records a `serve_sat` session leaves behind.
    layers.insert("serve.read_wal_ns", read_ns / records as f64 * 50_000.0);

    const FLUSHES: u32 = 8;
    let mut flush_ns = 0u128;
    for _ in 0..FLUSHES {
        // One short of the batch size, so the timed flush is the fsync.
        let mut wal = fresh(SyncPolicy::Batch)?;
        for text in texts.iter().take(BATCH_SYNC_EVERY as usize - 1) {
            wal.append(text).map_err(|e| format!("{path}: {e}"))?;
        }
        let t = Instant::now();
        wal.flush().map_err(|e| format!("{path}: {e}"))?;
        flush_ns += t.elapsed().as_nanos();
    }
    let _ = std::fs::remove_file(&path);
    layers.insert("serve.wal_flush_ns", flush_ns as f64 / f64::from(FLUSHES));

    // inject_request on a live (bootstrapped-empty) grid, no handling.
    let design = fifo_with_agents();
    let config = grid_config(&design, inputs.seed, &pinned_options());
    let mut grid = GridSystem::new(&inputs.topology, catalog, &config);
    let mut sim = Simulation::new();
    grid.bootstrap(&mut sim, Vec::new());
    let mut i = 0;
    let mut rejected = false;
    layers.insert(
        "core.inject_request_ns",
        per_op(256, 10_000, || {
            let r = &inputs.requests[i % inputs.requests.len()];
            rejected |= grid.inject_request(&mut sim, r).is_err();
            i += 1;
        }),
    );
    if rejected {
        return Err("inject_request refused a generated request".to_string());
    }

    let queue = AdmissionQueue::new(1024);
    layers.insert(
        "serve.admission_push_pop_ns",
        per_op(256, 10_000, || {
            let _ = queue.push_batch("ledger", vec![String::new()]);
            black_box(queue.pop());
        }),
    );

    // One POST /ingest against the real listener, nothing else running:
    // the floor under `ack_p50_ms` (idle accept polling included).
    let admission = Arc::new(AdmissionQueue::new(1 << 16));
    let shared = ServeShared::new(admission.clone());
    let (addr, listener) = spawn_listener("127.0.0.1:0", shared.clone())?;
    let body = format!("{}\n{}\n", texts[0], texts[1 % texts.len()]);
    let origin = Instant::now();
    let mut trips = Vec::new();
    for _ in 0..40 {
        let p = post_to(
            addr,
            "/ingest",
            &body,
            origin,
            origin.elapsed().as_nanos() as u64,
        );
        if p.code != Some(202) {
            shared.shutdown();
            let _ = listener.join();
            return Err(format!("in-process listener answered {:?}", p.code));
        }
        trips.push((p.done_ns - p.start_ns) as f64 / 1e6);
        while admission.pop().is_some() {}
    }
    shared.shutdown();
    listener
        .join()
        .map_err(|_| "listener thread panicked".to_string())?;
    layers.insert("serve.http_roundtrip_ms", crate::stats::median(&trips));
    Ok(())
}

fn telemetry(layers: &mut Layers) {
    let event = || Event::EngineHorizon { horizon: 1 };
    let disabled = Telemetry::disabled();
    layers.insert(
        "telemetry.emit_disabled_ns",
        per_op(4096, 100_000, || black_box(&disabled).emit(1, event)),
    );
    let aggregate = Telemetry::new(Arc::new(AggregateRecorder::new()));
    layers.insert(
        "telemetry.emit_aggregate_ns",
        per_op(1024, 10_000, || black_box(&aggregate).emit(1, event)),
    );
}

/// Run every micro-span and add its metric to `layers`.
pub fn run(inputs: &MicroInputs, out_dir: &str, layers: &mut Layers) -> Result<(), String> {
    let catalog = Catalog::case_study();
    sim_queue(inputs, layers);
    agents(inputs, &catalog, layers);
    scheduler(inputs, &catalog, layers);
    pace(inputs, &catalog, layers);
    serve(inputs, &catalog, out_dir, layers)?;
    telemetry(layers);
    Ok(())
}
