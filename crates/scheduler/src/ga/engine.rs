//! The evolving GA population (paper §2.1–2.2 "GA scheduling").
//!
//! The engine keeps a fixed-size population of two-part solution strings
//! for the scheduler's *current* optimisation set of tasks. Each call to
//! [`GaScheduler::evolve`] runs a bounded number of generations (with
//! early exit on stall) and returns the best decoded schedule found.
//! Between calls, the population persists: task arrivals and departures
//! are *absorbed* by editing every individual in place, so accumulated
//! ordering/mapping building blocks survive system changes — the property
//! the paper highlights as the reason for choosing an evolutionary method.

use crate::cost::{scale_fitness_into, CostWeights, ScheduleCost};
use crate::decode::{
    decode, decode_into, DecodeMemo, DecodeScratch, DecodedSchedule, EvalContext, ResourceView,
};
use crate::ga::ops::{crossover_into, mutate};
use crate::ga::par::{self, Lineage};
use crate::ga::select::stochastic_remainder_into;
use crate::solution::Solution;
use crate::task::Task;
use agentgrid_cluster::NodeMask;
use agentgrid_pace::CachedEngine;
use agentgrid_sim::{RngStream, SimDuration, SimTime};
use agentgrid_telemetry::{Event, Telemetry};
use rand::Rng;

/// Tuning knobs of the GA.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GaConfig {
    /// Fixed population size ("the genetic algorithm utilises a fixed
    /// population size"; the paper quotes 50 in its cache example).
    pub population: usize,
    /// Generations evolved per scheduling event.
    pub generations_per_event: usize,
    /// Early exit after this many generations without improvement.
    pub stall_generations: usize,
    /// Probability a selected pair is recombined (vs. cloned).
    pub crossover_rate: f64,
    /// Probability the ordering switch operator fires per individual.
    pub order_mutation_rate: f64,
    /// Per-bit flip probability in the mapping parts.
    pub bit_mutation_rate: f64,
    /// Individuals copied unchanged into the next generation.
    pub elitism: usize,
    /// Cost-function weights (eq. 8).
    pub weights: CostWeights,
    /// OS threads for population fitness evaluation (1 = sequential).
    /// Results are bit-identical for any value — parallelism only moves
    /// chunk boundaries, never an RNG draw (see [`crate::ga::par`]).
    pub threads: usize,
    /// Reuse per-worker [`DecodeScratch`] buffers between evaluations
    /// (false = allocate fresh per decode, the pre-optimisation path;
    /// kept as an ablation/regression knob — results are identical).
    pub reuse_scratch: bool,
    /// Independent island subpopulations evolved concurrently (1 = the
    /// single-population path, which preserves the historical decision
    /// stream exactly). Island RNG streams are keyed by island *index*,
    /// never by thread id, so results depend only on this count — any
    /// `threads` value replays the identical evolution.
    pub islands: usize,
    /// Generations each island evolves between best-individual ring
    /// migrations (island mode only).
    pub migration_interval: usize,
    /// Incremental (delta) fitness evaluation: an offspring resumes
    /// decoding after the longest prefix it shares with its recorded
    /// parent instead of re-decoding from position 0. Results are
    /// bit-identical either way (asserted in debug builds on every
    /// resume); the knob exists as a [`GaConfig::without_delta`]
    /// ablation for the hotpath bench.
    pub delta: bool,
}

impl GaConfig {
    /// This configuration with delta evaluation disabled — every
    /// individual is fully re-decoded each generation (the ablation /
    /// pre-optimisation path).
    pub fn without_delta(self) -> GaConfig {
        GaConfig {
            delta: false,
            ..self
        }
    }
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            population: 40,
            generations_per_event: 40,
            stall_generations: 15,
            crossover_rate: 0.8,
            order_mutation_rate: 0.35,
            bit_mutation_rate: 0.02,
            elitism: 2,
            weights: CostWeights::default(),
            threads: 1,
            reuse_scratch: true,
            islands: 1,
            migration_interval: 5,
            delta: true,
        }
    }
}

/// Result of one [`GaScheduler::evolve`] call.
#[derive(Clone, Debug)]
pub struct EvolveOutcome {
    /// The best schedule found (decoded placements, makespan, …).
    pub schedule: DecodedSchedule,
    /// Its combined cost (eq. 8).
    pub cost: f64,
    /// Generations actually evolved (≤ `generations_per_event`).
    pub generations: usize,
}

/// The GA scheduling kernel.
pub struct GaScheduler {
    config: GaConfig,
    population: Vec<Solution>,
    rng: RngStream,
    /// Task count the population currently encodes.
    ntasks: usize,
    telemetry: Telemetry,
    /// Resource name stamped on telemetry events.
    label: String,
    /// One reusable decode scratch per evaluation worker, persisted
    /// across evolve calls so warm buffers keep their capacity.
    scratches: Vec<DecodeScratch>,
    /// Reusable per-generation cost slots.
    costs: Vec<f64>,
    /// Double-buffered per-individual decode memos: `memos` holds the
    /// evaluated current generation (the parents of the next), the
    /// delta pass writes offspring into `memos_next`, then the buffers
    /// swap. Persisted across evolve calls for their capacity only —
    /// every evolve starts from fresh full decodes because the view has
    /// moved.
    memos: Vec<DecodeMemo>,
    memos_next: Vec<DecodeMemo>,
    /// Per-offspring parent indices recorded by the breeding loop.
    lineage: Vec<Lineage>,
    /// Breeding buffers of the single-population loop.
    nursery: Nursery,
}

impl GaScheduler {
    /// A scheduler with the given configuration and random stream.
    pub fn new(config: GaConfig, rng: RngStream) -> GaScheduler {
        assert!(config.population >= 2, "population must be at least 2");
        assert!(
            config.elitism < config.population,
            "elitism must leave room for offspring"
        );
        GaScheduler {
            config,
            population: Vec::new(),
            rng,
            ntasks: 0,
            telemetry: Telemetry::disabled(),
            label: String::new(),
            scratches: Vec::new(),
            costs: Vec::new(),
            memos: Vec::new(),
            memos_next: Vec::new(),
            lineage: Vec::new(),
            nursery: Nursery::default(),
        }
    }

    /// Record per-generation and per-evolve telemetry, labelling events
    /// with `label` (the owning resource's name).
    pub fn set_telemetry(&mut self, telemetry: Telemetry, label: &str) {
        self.telemetry = telemetry;
        self.label = label.to_string();
    }

    /// The configuration in force.
    pub fn config(&self) -> &GaConfig {
        &self.config
    }

    /// Adjust the per-event generation budget at runtime (the online
    /// tuner's knob). Only the search budget moves: population shape,
    /// operators and the random stream are untouched, so runs that
    /// never call this are unaffected.
    pub fn set_generations_per_event(&mut self, generations: usize) {
        self.config.generations_per_event = generations.max(1);
    }

    /// Current population (empty until the first evolve).
    pub fn population(&self) -> &[Solution] {
        &self.population
    }

    /// Absorb a newly arrived task: every individual gains the fresh task
    /// index at a random position with a random allocation.
    pub fn absorb_added_task(&mut self, nproc: usize) {
        for sol in &mut self.population {
            sol.insert_task(self.ntasks, nproc, &mut self.rng);
        }
        self.ntasks += 1;
    }

    /// Absorb a departed task (started executing or was cancelled):
    /// remove index `task` from every individual and shift later indices.
    pub fn absorb_removed_task(&mut self, task: usize) {
        for sol in &mut self.population {
            sol.remove_task(task);
        }
        self.ntasks = self.ntasks.saturating_sub(1);
    }

    /// Drop the population (e.g. after a resource reconfiguration).
    pub fn reset(&mut self) {
        self.population.clear();
        self.ntasks = 0;
    }

    /// Evolve the population against the current task set and resource
    /// snapshot, returning the best schedule found.
    pub fn evolve(
        &mut self,
        view: &ResourceView,
        tasks: &[Task],
        engine: &CachedEngine,
    ) -> EvolveOutcome {
        let m = tasks.len();
        let nproc = view.model.nproc;
        if m == 0 {
            self.population.clear();
            self.ntasks = 0;
            let empty = Solution {
                order: vec![],
                mapping: vec![],
            };
            let schedule = decode(view, tasks, &empty, engine);
            return EvolveOutcome {
                schedule,
                cost: 0.0,
                generations: 0,
            };
        }

        // Pre-query every PACE prediction the decoders can need into a
        // flat SoA table: the hot loops below touch contiguous memory
        // instead of the engine's synchronised cache.
        let ctx = EvalContext::build(view, tasks, engine);
        self.ensure_population(view, tasks, &ctx);
        self.inject_heuristic_seeds(view, tasks, &ctx);

        // Wall clock and cache deltas are telemetry payload only — they
        // never feed back into scheduling, so instrumented runs stay
        // bit-identical to uninstrumented ones.
        let t_now = view.now.ticks();
        let wall_start = self.telemetry.is_enabled().then(std::time::Instant::now);
        let stats_before = self.telemetry.is_enabled().then(|| engine.stats());

        let weights = self.config.weights;
        let threads = self.config.threads.max(1);
        let reuses_before: u64 = self.scratches.iter().map(DecodeScratch::reuses).sum();
        // Islands need at least four individuals each (elites plus a
        // crossover pair), so the requested count clamps to population/4.
        let islands = self
            .config
            .islands
            .clamp(1, (self.config.population / 4).max(1));
        let (best_solution, generations, search) = if islands > 1 {
            self.evolve_islands(view, &ctx, islands, t_now)
        } else {
            self.evolve_single(view, tasks, engine, &ctx, t_now)
        };

        let schedule = decode(view, tasks, &best_solution, engine);
        let cost = ScheduleCost::of(&schedule, &weights).combined(&weights);
        // Legitimacy verdict on the solution being committed, for the
        // online invariant checker. Emitted whenever telemetry is on —
        // not only when the wall-clock block below runs.
        self.telemetry.emit(t_now, || Event::GaSolutionCheck {
            resource: self.label.clone(),
            tasks: m as u32,
            legit: best_solution.is_legitimate(m, nproc),
        });
        if let (Some(wall), Some(before)) = (wall_start, stats_before) {
            let after = engine.stats();
            let wall_us = wall.elapsed().as_micros() as u64;
            self.telemetry.emit(t_now, || Event::GaEvolve {
                resource: self.label.clone(),
                generations: generations as u32,
                best_cost: cost,
                converged: search.converged,
                wall_us,
                cache_hits: after.hits.saturating_sub(before.hits),
                cache_misses: after.misses.saturating_sub(before.misses),
            });
            let reuses_after: u64 = self.scratches.iter().map(DecodeScratch::reuses).sum();
            let wall_s = (wall_us as f64 / 1e6).max(1e-9);
            self.telemetry.emit(t_now, || Event::GaHotPath {
                resource: self.label.clone(),
                threads: threads as u32,
                evaluations: search.evaluations,
                evals_per_sec: search.evaluations as f64 / wall_s,
                scratch_reuses: reuses_after.saturating_sub(reuses_before),
                fast_hits: after.fast_hits.saturating_sub(before.fast_hits),
                pool_utilisation: if search.passes > 0 {
                    search.util_sum / f64::from(search.passes)
                } else {
                    0.0
                },
                islands: islands as u32,
                delta_positions: search.decoded_positions,
            });
        }
        EvolveOutcome {
            schedule,
            cost,
            generations,
        }
    }

    /// The single-population search loop (the historical path, decision
    /// stream preserved exactly): breed on the driving thread, evaluate
    /// the population across worker threads, either incrementally
    /// (delta) or by full re-decode.
    fn evolve_single(
        &mut self,
        view: &ResourceView,
        tasks: &[Task],
        engine: &CachedEngine,
        ctx: &EvalContext,
        t_now: u64,
    ) -> (Solution, usize, SearchStats) {
        let nproc = view.model.nproc;
        let weights = self.config.weights;
        let threads = self.config.threads.max(1);
        let reuse = self.config.reuse_scratch;
        let delta = self.config.delta;
        // Pure per-solution cost for the non-delta path: everything
        // captured is frozen for the duration of the call, so evaluation
        // order cannot matter.
        let eval_cost = |sol: &Solution, scratch: &mut DecodeScratch| -> f64 {
            if reuse {
                let s = decode_into(view, tasks, sol, engine, scratch);
                ScheduleCost::of_parts(
                    s.makespan_rel_s,
                    &scratch.idle_pockets,
                    s.lateness_s,
                    s.alloc_node_s,
                    &weights,
                )
                .combined(&weights)
            } else {
                let d = decode(view, tasks, sol, engine);
                ScheduleCost::of(&d, &weights).combined(&weights)
            }
        };

        let mut search = SearchStats::default();
        let mut costs = std::mem::take(&mut self.costs);

        // Initial pass: always from scratch — the view has moved since
        // the previous event, so old memos describe a stale world.
        self.lineage.clear();
        self.lineage.resize(self.population.len(), Lineage::Fresh);
        let stats = if delta {
            par::evaluate_delta_into(
                threads,
                view,
                ctx,
                &self.population,
                &self.lineage,
                &[],
                &[],
                &mut self.memos,
                &mut costs,
                &mut self.scratches,
                &weights,
            )
        } else {
            par::evaluate_into(
                threads,
                &self.population,
                &mut costs,
                &mut self.scratches,
                &eval_cost,
            )
        };
        search.absorb(stats);
        let (mut best_idx, mut best_cost) = argmin(&costs);
        let mut best_solution = self.population[best_idx].clone();
        let mut stall = 0usize;
        let mut generations = 0usize;

        for _ in 0..self.config.generations_per_event {
            if stall >= self.config.stall_generations {
                break;
            }
            generations += 1;

            breed(
                &mut self.population,
                &costs,
                self.config.elitism,
                nproc,
                &self.config,
                &mut self.rng,
                &mut self.lineage,
                &mut self.nursery,
            );
            let prev = &self.nursery.next;
            let stats = if delta {
                let s = par::evaluate_delta_into(
                    threads,
                    view,
                    ctx,
                    &self.population,
                    &self.lineage,
                    prev,
                    &self.memos,
                    &mut self.memos_next,
                    &mut costs,
                    &mut self.scratches,
                    &weights,
                );
                std::mem::swap(&mut self.memos, &mut self.memos_next);
                s
            } else {
                par::evaluate_into(
                    threads,
                    &self.population,
                    &mut costs,
                    &mut self.scratches,
                    &eval_cost,
                )
            };
            search.absorb(stats);
            let (gen_best_idx, gen_best_cost) = argmin(&costs);
            self.telemetry.emit(t_now, || Event::GaGeneration {
                resource: self.label.clone(),
                generation: (generations - 1) as u32,
                best_cost: gen_best_cost,
                mean_cost: costs.iter().sum::<f64>() / costs.len() as f64,
            });
            if gen_best_cost + 1e-12 < best_cost {
                best_cost = gen_best_cost;
                best_idx = gen_best_idx;
                best_solution.clone_from(&self.population[gen_best_idx]);
                stall = 0;
            } else {
                stall += 1;
            }
        }

        let _ = best_idx;
        search.converged = stall >= self.config.stall_generations;
        self.costs = costs;
        (best_solution, generations, search)
    }

    /// The island-model search loop: the population splits into
    /// `islands` contiguous subpopulations, each evolving independently
    /// on its own RNG stream (keyed by island index), with the islands
    /// advanced concurrently across worker threads and the per-island
    /// champion migrating one step around the ring every
    /// `migration_interval` generations. Stall is accounted per
    /// generation but only *checked* between bursts, so an exhausted
    /// search can overshoot the stall budget by at most one interval.
    fn evolve_islands(
        &mut self,
        view: &ResourceView,
        ctx: &EvalContext,
        k: usize,
        t_now: u64,
    ) -> (Solution, usize, SearchStats) {
        let config = self.config;
        let weights = config.weights;
        let threads = config.threads.max(1);
        let nproc = view.model.nproc;
        // One epoch draw per evolve; island streams derive from it by
        // index, so the evolution is a pure function of (scheduler
        // stream, island count) — thread count never touches an RNG.
        let epoch: u64 = self.rng.gen();

        let mut islands: Vec<Island> = Vec::with_capacity(k);
        let base = self.population.len() / k;
        let rem = self.population.len() % k;
        let mut offset = 0;
        for i in 0..k {
            let size = base + usize::from(i < rem);
            islands.push(Island {
                solutions: self.population[offset..offset + size].to_vec(),
                costs: Vec::new(),
                memos: Vec::new(),
                memos_next: Vec::new(),
                lineage: Vec::new(),
                scratches: Vec::new(),
                nursery: Nursery::default(),
                rng: RngStream::root(epoch).derive(&format!("island-{i}")),
                best_cost: f64::INFINITY,
                best: Solution::default(),
                gen_stats: Vec::new(),
                evaluations: 0,
                decoded: 0,
            });
            offset += size;
        }

        let mut search = SearchStats::default();
        // Pool occupancy per island pass (pure function of the counts).
        let workers = threads.min(k);
        let island_util = k as f64 / (workers * k.div_ceil(workers)) as f64;

        // Initial fitness of every island, islands in parallel.
        par::for_each_parallel(threads, &mut islands, &|isl: &mut Island| {
            isl.lineage.clear();
            isl.lineage.resize(isl.solutions.len(), Lineage::Fresh);
            let stats = par::evaluate_delta_into(
                1,
                view,
                ctx,
                &isl.solutions,
                &isl.lineage,
                &[],
                &[],
                &mut isl.memos,
                &mut isl.costs,
                &mut isl.scratches,
                &weights,
            );
            isl.evaluations += stats.evaluated as u64;
            isl.decoded += stats.decoded_positions;
            let (bi, bc) = argmin(&isl.costs);
            isl.best_cost = bc;
            isl.best.clone_from(&isl.solutions[bi]);
        });
        search.passes += 1;
        search.util_sum += island_util;

        let total_pop = self.population.len();
        let mut best_cost = islands
            .iter()
            .map(|isl| isl.best_cost)
            .fold(f64::INFINITY, f64::min);
        let interval = config.migration_interval.max(1);
        let mut generations = 0usize;
        let mut stall = 0usize;
        while generations < config.generations_per_event && stall < config.stall_generations {
            let burst = interval.min(config.generations_per_event - generations);
            par::for_each_parallel(threads, &mut islands, &|isl: &mut Island| {
                island_burst(isl, burst, view, ctx, nproc, &config);
            });
            search.passes += burst as u32;
            search.util_sum += island_util * burst as f64;

            // Per-generation telemetry and stall accounting, aggregated
            // deterministically on the driving thread — workers never
            // emit, so tracing cannot perturb the decision stream.
            for g in 0..burst {
                let mut gen_best = f64::INFINITY;
                let mut sum = 0.0;
                for isl in &islands {
                    gen_best = gen_best.min(isl.gen_stats[g].0);
                    sum += isl.gen_stats[g].1;
                }
                self.telemetry.emit(t_now, || Event::GaGeneration {
                    resource: self.label.clone(),
                    generation: generations as u32,
                    best_cost: gen_best,
                    mean_cost: sum / total_pop as f64,
                });
                generations += 1;
                if gen_best + 1e-12 < best_cost {
                    best_cost = gen_best;
                    stall = 0;
                } else {
                    stall += 1;
                }
            }

            // Ring migration: island i's current champion replaces
            // island (i+1)'s worst member, memo travelling with it so
            // the migrant stays a valid delta parent. Migrants are
            // snapshotted first (a simultaneous exchange, not a chain).
            let migrants: Vec<(Solution, f64, DecodeMemo)> = islands
                .iter()
                .map(|isl| {
                    let (bi, _) = argmin(&isl.costs);
                    (
                        isl.solutions[bi].clone(),
                        isl.costs[bi],
                        isl.memos[bi].clone(),
                    )
                })
                .collect();
            for (i, (sol, cost, memo)) in migrants.into_iter().enumerate() {
                let dst = &mut islands[(i + 1) % k];
                let (wi, _) = argmax(&dst.costs);
                dst.solutions[wi] = sol;
                dst.costs[wi] = cost;
                dst.memos[wi] = memo;
            }
        }
        search.converged = stall >= config.stall_generations;

        for isl in &islands {
            search.evaluations += isl.evaluations;
            search.decoded_positions += isl.decoded;
        }
        // Champion across islands, ties to the lowest index.
        let mut champ = 0usize;
        for (i, isl) in islands.iter().enumerate() {
            if isl.best_cost < islands[champ].best_cost {
                champ = i;
            }
        }
        let best_solution = islands[champ].best.clone();
        // Reassemble the population so absorption and reseeding between
        // events keep working on the full individual set.
        self.population.clear();
        self.costs.clear();
        for isl in &mut islands {
            self.costs.extend_from_slice(&isl.costs);
            self.population.append(&mut isl.solutions);
        }
        (best_solution, generations, search)
    }

    /// Refresh the two heuristic seeds against the *current* resource
    /// view, replacing the two tail individuals. The arrival-order greedy
    /// seed is exactly the FIFO baseline's schedule, so the best of the
    /// population — and therefore what gets committed — can never fall
    /// behind FIFO by the cost function. Without this, the seeds only
    /// exist at reseed time and decay as tasks are absorbed at random
    /// positions.
    fn inject_heuristic_seeds(&mut self, view: &ResourceView, tasks: &[Task], ctx: &EvalContext) {
        let m = tasks.len();
        let n = self.population.len();
        if m == 0 || n < 4 {
            return;
        }
        self.population[n - 1] = greedy_seed(view, ctx, |i| i);
        let mut by_deadline: Vec<usize> = (0..m).collect();
        by_deadline.sort_by_key(|i| tasks[*i].deadline);
        self.population[n - 2] = greedy_seed(view, ctx, |p| by_deadline[p]);
    }

    /// (Re)seed the population if it is missing or inconsistent with the
    /// task set: two heuristic seeds (arrival-order greedy and
    /// earliest-deadline-first greedy) plus random individuals.
    fn ensure_population(&mut self, view: &ResourceView, tasks: &[Task], ctx: &EvalContext) {
        let m = tasks.len();
        let consistent = self.ntasks == m
            && self.population.len() == self.config.population
            && self
                .population
                .iter()
                .all(|s| s.is_legitimate(m, view.model.nproc));
        if consistent {
            return;
        }
        let nproc = view.model.nproc;
        self.population.clear();
        self.population.push(greedy_seed(view, ctx, |i| i));
        let mut by_deadline: Vec<usize> = (0..m).collect();
        by_deadline.sort_by_key(|i| tasks[*i].deadline);
        self.population
            .push(greedy_seed(view, ctx, |p| by_deadline[p]));
        while self.population.len() < self.config.population {
            self.population
                .push(Solution::random(m, nproc, &mut self.rng));
        }
        self.ntasks = m;
    }
}

/// Hot-path accounting for one evolve call (telemetry payload only; every
/// number is a pure function of the search structure, never of timing).
#[derive(Clone, Copy, Debug, Default)]
struct SearchStats {
    evaluations: u64,
    util_sum: f64,
    passes: u32,
    decoded_positions: u64,
    converged: bool,
}

impl SearchStats {
    fn absorb(&mut self, stats: par::EvalStats) {
        self.evaluations += stats.evaluated as u64;
        self.util_sum += stats.utilisation();
        self.passes += 1;
        self.decoded_positions += stats.decoded_positions;
    }
}

/// One island subpopulation with everything its evolution touches, so a
/// burst can run on any worker thread without shared state: solutions,
/// costs, double-buffered memos, its own RNG stream (keyed by island
/// index at construction), decode scratch and breeding buffers.
struct Island {
    solutions: Vec<Solution>,
    costs: Vec<f64>,
    memos: Vec<DecodeMemo>,
    memos_next: Vec<DecodeMemo>,
    lineage: Vec<Lineage>,
    scratches: Vec<DecodeScratch>,
    nursery: Nursery,
    rng: RngStream,
    /// Best cost ever observed on this island (elites may still lose it
    /// when `elitism` is 0, so it is tracked, not derived).
    best_cost: f64,
    best: Solution,
    /// Per-generation `(best, cost sum)` of the last burst, in order —
    /// the driving thread aggregates these into the telemetry stream.
    gen_stats: Vec<(f64, f64)>,
    evaluations: u64,
    decoded: u64,
}

/// Reusable buffers of [`breed`], so a generation allocates nothing once
/// they have grown to the population and task counts.
#[derive(Default)]
struct Nursery {
    /// The generation being bred. Once [`breed`] swaps it with the
    /// population it holds the previous generation: the parents the
    /// delta pass resumes from.
    next: Vec<Solution>,
    /// Second child of a last pair with no slot left. It is bred (its
    /// repair draws belong to the stream) and then dropped.
    spare: Solution,
    fitness: Vec<f64>,
    parents: Vec<usize>,
    remainders: Vec<f64>,
    elites: Vec<usize>,
    taken: Vec<bool>,
}

/// One generation of selection, elitism, crossover and mutation, the
/// same for the single population and for every island: breeds the
/// successor of `population` (scored by `costs`) into `nursery.next`,
/// records each offspring's lineage, and swaps the two, so `population`
/// holds the offspring and `nursery.next` their parents.
#[allow(clippy::too_many_arguments)]
fn breed(
    population: &mut Vec<Solution>,
    costs: &[f64],
    elitism: usize,
    nproc: usize,
    config: &GaConfig,
    rng: &mut RngStream,
    lineage: &mut Vec<Lineage>,
    nursery: &mut Nursery,
) {
    let pop = population.len();
    let n = nursery;
    scale_fitness_into(costs, &mut n.fitness);
    stochastic_remainder_into(
        &n.fitness,
        pop - elitism,
        rng,
        &mut n.parents,
        &mut n.remainders,
    );
    n.next.resize_with(pop, Solution::default);

    // Elites survive unchanged; their lineage points at themselves, so
    // the delta pass copies their memoised cost without decoding a
    // single position.
    lineage.clear();
    k_smallest_into(costs, elitism, &mut n.elites);
    for (slot, &i) in n.next.iter_mut().zip(&n.elites) {
        slot.clone_from(&population[i]);
        lineage.push(Lineage::Parent(i));
    }

    // Pair parents, recombine, mutate. Each child's lineage is the
    // parent contributing its prefix (crossover splices the head of `a`
    // onto `b` and vice versa).
    let parents = &n.parents;
    let mut filled = elitism;
    let mut pi = 0;
    while filled < pop {
        let ia = parents[pi % parents.len()];
        let ib = parents[(pi + 1) % parents.len()];
        pi += 2;
        let (pa, pb) = (&population[ia], &population[ib]);
        let (c1, c2) = if filled + 1 < pop {
            let (head, tail) = n.next.split_at_mut(filled + 1);
            (&mut head[filled], &mut tail[0])
        } else {
            (&mut n.next[filled], &mut n.spare)
        };
        if rng.gen::<f64>() < config.crossover_rate {
            crossover_into(pa, pb, nproc, rng, c1, c2, &mut n.taken);
        } else {
            c1.clone_from(pa);
            c2.clone_from(pb);
        }
        mutate(
            c1,
            nproc,
            config.order_mutation_rate,
            config.bit_mutation_rate,
            rng,
        );
        lineage.push(Lineage::Parent(ia));
        filled += 1;
        if filled < pop {
            mutate(
                c2,
                nproc,
                config.order_mutation_rate,
                config.bit_mutation_rate,
                rng,
            );
            lineage.push(Lineage::Parent(ib));
            filled += 1;
        }
    }
    std::mem::swap(population, &mut n.next);
}

/// Advance one island by `gens` generations: the same
/// select/recombine/mutate/evaluate cycle as the single-population loop,
/// but against the island's own RNG stream and with a sequential
/// (1-thread) delta evaluation — cross-island parallelism is the outer
/// loop's job.
fn island_burst(
    isl: &mut Island,
    gens: usize,
    view: &ResourceView,
    ctx: &EvalContext,
    nproc: usize,
    config: &GaConfig,
) {
    isl.gen_stats.clear();
    let pop = isl.solutions.len();
    let elitism = config.elitism.min(pop.saturating_sub(2));
    for _ in 0..gens {
        breed(
            &mut isl.solutions,
            &isl.costs,
            elitism,
            nproc,
            config,
            &mut isl.rng,
            &mut isl.lineage,
            &mut isl.nursery,
        );
        let stats = if config.delta {
            let s = par::evaluate_delta_into(
                1,
                view,
                ctx,
                &isl.solutions,
                &isl.lineage,
                &isl.nursery.next,
                &isl.memos,
                &mut isl.memos_next,
                &mut isl.costs,
                &mut isl.scratches,
                &config.weights,
            );
            std::mem::swap(&mut isl.memos, &mut isl.memos_next);
            s
        } else {
            isl.lineage.clear();
            isl.lineage.resize(pop, Lineage::Fresh);
            par::evaluate_delta_into(
                1,
                view,
                ctx,
                &isl.solutions,
                &isl.lineage,
                &[],
                &[],
                &mut isl.memos,
                &mut isl.costs,
                &mut isl.scratches,
                &config.weights,
            )
        };
        isl.evaluations += stats.evaluated as u64;
        isl.decoded += stats.decoded_positions;
        let (bi, bc) = argmin(&isl.costs);
        if bc + 1e-12 < isl.best_cost {
            isl.best_cost = bc;
            isl.best.clone_from(&isl.solutions[bi]);
        }
        isl.gen_stats.push((bc, isl.costs.iter().sum()));
    }
}

/// Greedy seed: tasks in the order induced by `order_of`, each allocated
/// the earliest-completing `k`-earliest-free node set. With the free
/// times sorted ascending, the start of the `k`-widest candidate is just
/// the `k`-th free time, so the scan is O(n) per task after the sort and
/// only the winning mask is materialised — same selections as the former
/// per-`k` mask build, measured on the same engine predictions (now read
/// from the [`EvalContext`] table).
pub(crate) fn greedy_seed(
    view: &ResourceView,
    ctx: &EvalContext,
    order_of: impl Fn(usize) -> usize,
) -> Solution {
    let m = ctx.task_count();
    let mut node_free = view.node_free.clone();
    let mut order = Vec::with_capacity(m);
    let mut mapping = Vec::with_capacity(m);
    let mut sorted: Vec<usize> = Vec::new();
    for p in 0..m {
        let t = order_of(p);
        sorted.clear();
        sorted.extend(view.available.iter());
        sorted.sort_by_key(|i| (node_free[*i], *i));
        let mut best: Option<(SimTime, usize)> = None;
        for k in 1..=sorted.len() {
            // All free times are clamped to `now` at snapshot and only
            // advance, so the max over the k earliest is the k-th entry.
            let start = node_free[sorted[k - 1]].max(view.now);
            let exec = ctx.exec_s(t, k);
            let completion = start + SimDuration::from_secs_f64(exec);
            if best.is_none_or(|(bc, _)| completion < bc) {
                best = Some((completion, k));
            }
        }
        let (completion, k) = best.expect("at least one node available");
        let mask = NodeMask::from_indices(sorted.iter().copied().take(k));
        for i in mask.iter() {
            node_free[i] = completion;
        }
        order.push(t);
        mapping.push(mask);
    }
    Solution { order, mapping }
}

fn argmin(costs: &[f64]) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (i, &c) in costs.iter().enumerate() {
        if c < best.1 {
            best = (i, c);
        }
    }
    best
}

/// Index and value of the largest cost (the migration victim).
fn argmax(costs: &[f64]) -> (usize, f64) {
    let mut worst = (0usize, f64::NEG_INFINITY);
    for (i, &c) in costs.iter().enumerate() {
        if c > worst.1 {
            worst = (i, c);
        }
    }
    worst
}

/// Indices of the `k` smallest costs into `idx`, ties to the lower index
/// (the order a stable sort gives).
fn k_smallest_into(costs: &[f64], k: usize, idx: &mut Vec<usize>) {
    idx.clear();
    idx.extend(0..costs.len());
    idx.sort_unstable_by(|a, b| {
        costs[*a]
            .partial_cmp(&costs[*b])
            .expect("finite costs")
            .then(a.cmp(b))
    });
    idx.truncate(k);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{Task, TaskId};
    use agentgrid_cluster::{ExecEnv, GridResource};
    use agentgrid_pace::{AppId, ApplicationModel, ModelCurve, Platform, TabulatedModel};
    use std::sync::Arc;

    fn app(times: Vec<f64>) -> Arc<ApplicationModel> {
        Arc::new(
            ApplicationModel::new(
                AppId(0),
                "t",
                ModelCurve::Tabulated(TabulatedModel::new(times).unwrap()),
                (1.0, 1000.0),
            )
            .unwrap(),
        )
    }

    fn task(id: u64, app: Arc<ApplicationModel>, deadline_s: u64) -> Task {
        Task::new(
            TaskId(id),
            app,
            SimTime::ZERO,
            SimTime::from_secs(deadline_s),
            ExecEnv::Test,
        )
    }

    fn view(nproc: usize) -> ResourceView {
        let r = GridResource::new("S1", Platform::sgi_origin2000(), nproc);
        ResourceView::snapshot(&r, SimTime::ZERO).unwrap()
    }

    fn ga(seed: u64) -> GaScheduler {
        GaScheduler::new(GaConfig::default(), RngStream::root(seed).derive("ga"))
    }

    #[test]
    fn empty_task_set_yields_empty_schedule() {
        let engine = CachedEngine::new();
        let mut g = ga(1);
        let out = g.evolve(&view(4), &[], &engine);
        assert!(out.schedule.placements.is_empty());
        assert_eq!(out.generations, 0);
    }

    #[test]
    fn single_task_is_scheduled_immediately() {
        let engine = CachedEngine::new();
        let mut g = ga(2);
        let tasks = vec![task(1, app(vec![10.0, 6.0, 4.0, 3.0]), 100)];
        let out = g.evolve(&view(4), &tasks, &engine);
        assert_eq!(out.schedule.placements.len(), 1);
        assert_eq!(out.schedule.placements[0].start, SimTime::ZERO);
        assert_eq!(out.schedule.missed_deadlines, 0);
    }

    #[test]
    fn ga_beats_or_matches_random_solutions() {
        let engine = CachedEngine::new();
        // Quality claim about the single-population search: islands
        // would split this already-tiny population into fragments that
        // search marginally worse.
        let config = GaConfig {
            islands: 1,
            ..GaConfig::default()
        };
        let mut g = GaScheduler::new(config, RngStream::root(3).derive("ga"));
        let a = app(vec![20.0, 12.0, 9.0, 8.0]);
        let tasks: Vec<Task> = (0..8).map(|i| task(i, a.clone(), 60)).collect();
        let v = view(4);
        let out = g.evolve(&v, &tasks, &engine);
        // Compare against fresh random solutions under the same cost.
        let weights = CostWeights::default();
        let mut rng = RngStream::root(99).derive("rand");
        let mut best_random = f64::INFINITY;
        for _ in 0..200 {
            let s = Solution::random(8, 4, &mut rng);
            let d = decode(&v, &tasks, &s, &engine);
            best_random = best_random.min(ScheduleCost::of(&d, &weights).combined(&weights));
        }
        assert!(
            out.cost <= best_random + 1e-9,
            "GA cost {} worse than best of 200 random {}",
            out.cost,
            best_random
        );
    }

    #[test]
    fn evolve_improves_or_matches_initial_population_cost() {
        let engine = CachedEngine::new();
        let mut g = ga(4);
        let a = app(vec![15.0, 9.0, 7.0, 6.0]);
        let tasks: Vec<Task> = (0..10).map(|i| task(i, a.clone(), 45)).collect();
        let v = view(4);
        let first = g.evolve(&v, &tasks, &engine);
        let second = g.evolve(&v, &tasks, &engine);
        assert!(second.cost <= first.cost + 1e-9);
    }

    #[test]
    fn absorb_added_task_keeps_population_legitimate() {
        let engine = CachedEngine::new();
        let mut g = ga(5);
        let a = app(vec![10.0, 6.0]);
        let mut tasks: Vec<Task> = (0..4).map(|i| task(i, a.clone(), 100)).collect();
        let v = view(2);
        g.evolve(&v, &tasks, &engine);
        tasks.push(task(4, a.clone(), 100));
        g.absorb_added_task(2);
        for s in g.population() {
            assert!(s.is_legitimate(5, 2));
        }
        let out = g.evolve(&v, &tasks, &engine);
        assert_eq!(out.schedule.placements.len(), 5);
    }

    #[test]
    fn absorb_removed_task_keeps_population_legitimate() {
        let engine = CachedEngine::new();
        let mut g = ga(6);
        let a = app(vec![10.0, 6.0]);
        let mut tasks: Vec<Task> = (0..5).map(|i| task(i, a.clone(), 100)).collect();
        let v = view(2);
        g.evolve(&v, &tasks, &engine);
        tasks.remove(1);
        g.absorb_removed_task(1);
        for s in g.population() {
            assert!(s.is_legitimate(4, 2));
        }
        let out = g.evolve(&v, &tasks, &engine);
        assert_eq!(out.schedule.placements.len(), 4);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let engine1 = CachedEngine::new();
        let engine2 = CachedEngine::new();
        let a = app(vec![12.0, 7.0, 5.0, 4.0]);
        let tasks: Vec<Task> = (0..6).map(|i| task(i, a.clone(), 50)).collect();
        let v = view(4);
        let out1 = ga(7).evolve(&v, &tasks, &engine1);
        let out2 = ga(7).evolve(&v, &tasks, &engine2);
        assert_eq!(out1.cost, out2.cost);
        assert_eq!(out1.schedule.placements, out2.schedule.placements);
    }

    #[test]
    fn thread_count_and_scratch_mode_do_not_change_the_outcome() {
        let a = app(vec![12.0, 7.0, 5.0, 4.0]);
        let tasks: Vec<Task> = (0..6).map(|i| task(i, a.clone(), 50)).collect();
        let v = view(4);
        let run = |threads: usize, reuse_scratch: bool| {
            let engine = CachedEngine::new();
            let config = GaConfig {
                threads,
                reuse_scratch,
                ..GaConfig::default()
            };
            let mut g = GaScheduler::new(config, RngStream::root(7).derive("ga"));
            g.evolve(&v, &tasks, &engine)
        };
        let base = run(1, true);
        for (threads, reuse) in [(4, true), (8, true), (1, false), (4, false)] {
            let out = run(threads, reuse);
            assert_eq!(
                out.cost.to_bits(),
                base.cost.to_bits(),
                "threads={threads} reuse={reuse}"
            );
            assert_eq!(out.schedule.placements, base.schedule.placements);
            assert_eq!(out.generations, base.generations);
        }
    }

    #[test]
    fn delta_evaluation_does_not_change_the_outcome() {
        // The delta/full-redecode knob must be invisible in results:
        // same champion, same placements, same generation count — only
        // the work done per generation differs.
        let a = app(vec![12.0, 7.0, 5.0, 4.0]);
        let tasks: Vec<Task> = (0..8).map(|i| task(i, a.clone(), 50)).collect();
        let v = view(4);
        let run = |config: GaConfig| {
            let engine = CachedEngine::new();
            let mut g = GaScheduler::new(config, RngStream::root(11).derive("ga"));
            g.evolve(&v, &tasks, &engine)
        };
        for islands in [1usize, 2, 4] {
            let base = run(GaConfig {
                islands,
                ..GaConfig::default()
            });
            let ablated = run(GaConfig {
                islands,
                ..GaConfig::default()
            }
            .without_delta());
            assert_eq!(
                base.cost.to_bits(),
                ablated.cost.to_bits(),
                "islands={islands}"
            );
            assert_eq!(base.schedule.placements, ablated.schedule.placements);
            assert_eq!(base.generations, ablated.generations);
        }
    }

    #[test]
    fn island_outcome_is_identical_for_any_thread_count() {
        // The island count *chooses* the evolution; threads only decide
        // how many islands advance concurrently. For a fixed island
        // count, every thread count must replay the same search.
        let a = app(vec![12.0, 7.0, 5.0, 4.0]);
        let tasks: Vec<Task> = (0..8).map(|i| task(i, a.clone(), 50)).collect();
        let v = view(4);
        let run = |threads: usize, islands: usize| {
            let engine = CachedEngine::new();
            let config = GaConfig {
                threads,
                islands,
                ..GaConfig::default()
            };
            let mut g = GaScheduler::new(config, RngStream::root(13).derive("ga"));
            let out = g.evolve(&v, &tasks, &engine);
            let pop: Vec<Solution> = g.population().to_vec();
            (out, pop)
        };
        for islands in [2usize, 4] {
            let (base, base_pop) = run(1, islands);
            for threads in [2usize, 4, 8] {
                let (out, pop) = run(threads, islands);
                assert_eq!(
                    out.cost.to_bits(),
                    base.cost.to_bits(),
                    "islands={islands} threads={threads}"
                );
                assert_eq!(out.schedule.placements, base.schedule.placements);
                assert_eq!(out.generations, base.generations);
                // The whole surviving population — not just the champion
                // — must match, or a later absorb would diverge.
                assert_eq!(pop, base_pop, "islands={islands} threads={threads}");
            }
        }
    }

    #[test]
    fn island_mode_keeps_population_shape_and_legitimacy() {
        let a = app(vec![14.0, 8.0, 6.0, 5.0]);
        let v = view(4);
        let engine = CachedEngine::new();
        let config = GaConfig {
            islands: 4,
            ..GaConfig::default()
        };
        let mut g = GaScheduler::new(config, RngStream::root(21).derive("ga"));
        let mut tasks: Vec<Task> = (0..9).map(|i| task(i, a.clone(), 60)).collect();
        let out = g.evolve(&v, &tasks, &engine);
        assert_eq!(out.schedule.placements.len(), 9);
        assert_eq!(g.population().len(), g.config().population);
        for s in g.population() {
            assert!(s.is_legitimate(9, 4));
        }
        // Absorption still works on the reassembled population.
        tasks.push(task(9, a.clone(), 60));
        g.absorb_added_task(4);
        let out = g.evolve(&v, &tasks, &engine);
        assert_eq!(out.schedule.placements.len(), 10);
    }

    #[test]
    fn island_request_clamps_to_viable_subpopulations() {
        // 40 individuals / 4 = at most 10 islands; a silly request must
        // not panic or create degenerate islands.
        let a = app(vec![10.0, 6.0]);
        let tasks: Vec<Task> = (0..5).map(|i| task(i, a.clone(), 60)).collect();
        let engine = CachedEngine::new();
        let config = GaConfig {
            islands: 64,
            ..GaConfig::default()
        };
        let mut g = GaScheduler::new(config, RngStream::root(5).derive("ga"));
        let out = g.evolve(&view(2), &tasks, &engine);
        assert_eq!(out.schedule.placements.len(), 5);
        for s in g.population() {
            assert!(s.is_legitimate(5, 2));
        }
    }

    #[test]
    fn evolved_population_is_legitimate_across_seeds_and_thread_counts() {
        // The operators are exercised through the full engine here: after
        // evolving under different seeds and evaluation-thread counts,
        // every survivor (not just the champion) must still be a valid
        // permutation with non-empty in-range masks.
        let a = app(vec![14.0, 8.0, 6.0, 5.0]);
        let v = view(4);
        for seed in [1u64, 17, 42] {
            for threads in [1usize, 4] {
                let engine = CachedEngine::new();
                let config = GaConfig {
                    threads,
                    population: 12,
                    generations_per_event: 10,
                    ..GaConfig::default()
                };
                let mut g = GaScheduler::new(config, RngStream::root(seed).derive("ga"));
                let tasks: Vec<Task> = (0..7).map(|i| task(i, a.clone(), 60)).collect();
                let out = g.evolve(&v, &tasks, &engine);
                assert_eq!(out.schedule.placements.len(), 7);
                for (i, s) in g.population().iter().enumerate() {
                    assert!(
                        s.is_legitimate(7, 4),
                        "seed={seed} threads={threads}: survivor {i} illegitimate: {s:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn meets_feasible_deadlines() {
        // 4 tasks of 10 s on 4 nodes, deadlines 15 s: trivially feasible
        // one-per-node; the GA must find a zero-lateness schedule.
        let engine = CachedEngine::new();
        let mut g = ga(8);
        let a = app(vec![10.0, 10.0, 10.0, 10.0]);
        let tasks: Vec<Task> = (0..4).map(|i| task(i, a.clone(), 15)).collect();
        let out = g.evolve(&view(4), &tasks, &engine);
        assert_eq!(out.schedule.missed_deadlines, 0, "{:?}", out.schedule);
    }

    #[test]
    fn stall_terminates_early() {
        let engine = CachedEngine::new();
        let config = GaConfig {
            generations_per_event: 1000,
            stall_generations: 3,
            ..GaConfig::default()
        };
        let mut g = GaScheduler::new(config, RngStream::root(9).derive("ga"));
        let tasks = vec![task(0, app(vec![5.0]), 100)];
        let out = g.evolve(&view(1), &tasks, &engine);
        assert!(out.generations < 1000);
    }

    #[test]
    #[should_panic(expected = "population")]
    fn rejects_tiny_population() {
        let config = GaConfig {
            population: 1,
            ..GaConfig::default()
        };
        let _ = GaScheduler::new(config, RngStream::root(1));
    }
}
