//! Sharded execution of the simulation event loop (DESIGN.md §13).
//!
//! The agent hierarchy is partitioned into contiguous id-range shards
//! ([`GridSystem::shard_bounds`]); runs of consecutive
//! `AdvertisementPull` events — the one event class that dominates large
//! grids and provably commutes under the conditions checked by
//! [`GridSystem::pull_batching_eligible`] — are collected into a batch
//! window, executed shard-parallel on scoped worker threads, and then
//! *replayed* through the engine in the original `(time, seq)` order.
//!
//! The replay is the determinism contract: every entry is restored to
//! the queue before stepping, so the clock, the processed counter, the
//! `EngineStep { pending }` markers, the buffered `Advertise` telemetry,
//! and the seqs of the periodic reschedules are byte-identical to the
//! sequential loop. Results depend only on the *requested* shard count
//! — and since committed ACT updates are disjoint per agent, not even on
//! that: any shard/worker count reproduces `shards = 1` exactly. The
//! same contract as `ga::par` chunking and the GA island model.
//!
//! Every other event (requests, completions, monitor polls, chaos)
//! stays sequential at the coordinator; a window is bounded by the pull
//! period so a reschedule can never undercut a batched entry.

use crate::grid::{GridEvent, GridSystem};
use agentgrid_agents::{Agent, ResourceId, ServiceInfo};
use agentgrid_scheduler::SchedulerSystem;
use agentgrid_sim::{SimTime, Simulation};
use agentgrid_telemetry::{Event, Telemetry};

/// Windows smaller than this run inline on the coordinator thread —
/// spawning scoped workers costs more than the pulls themselves.
const MIN_PARALLEL_BATCH: usize = 64;

/// Hard cap on one window (bounds the scratch the runner holds).
const MAX_BATCH: usize = 1 << 16;

/// Merge-barrier counters, reported by `agentgrid serve` `/status` and
/// the `gridscale` bench rows.
#[derive(Clone, Copy, Debug, Default)]
pub struct SyncStats {
    /// Batch windows executed (== merge barriers crossed).
    pub windows: u64,
    /// Pull events that went through a window.
    pub batched: u64,
    /// Largest single window.
    pub max_batch: u64,
}

/// One speculative batch entry: a popped `AdvertisementPull` plus the
/// worker-side results carried back across the merge barrier.
struct BatchEntry {
    at: SimTime,
    seq: u64,
    agent: ResourceId,
    /// Pull messages sent (== neighbour count), summed at commit.
    pulls: u64,
    /// Buffered `Advertise` telemetry in neighbour order; empty when
    /// telemetry is disabled.
    events: Vec<Event>,
}

/// Drives a [`Simulation`] of a [`GridSystem`] with shard-parallel pull
/// batching. With `shards == 1` every event takes the plain
/// step-and-handle path, byte-identical to the legacy loop.
pub struct ShardRunner {
    shards: usize,
    workers: usize,
    /// `ShardSync` events go to this *separate* channel (disabled by
    /// default) so the main telemetry stream stays identical across
    /// shard counts.
    sync_telemetry: Telemetry,
    /// Contiguous shard bounds over agent ids; computed on first use.
    bounds: Vec<usize>,
    /// Per-agent attempt stamp: an agent already batched in the current
    /// collection attempt ends the window (its reschedule must
    /// interleave).
    seen_window: Vec<u64>,
    /// Collection attempts so far (stamps `seen_window`; advances even
    /// when an attempt yields no window).
    attempts: u64,
    batch: Vec<BatchEntry>,
    /// Per-shard split of a window's entries (reused across windows).
    shard_entries: Vec<Vec<BatchEntry>>,
    stats: SyncStats,
}

impl ShardRunner {
    /// A runner over `shards` shards using up to `workers` threads
    /// (default: available parallelism, capped at the shard count).
    /// The worker count can never influence results — only wall time.
    pub fn new(shards: usize, workers: Option<usize>) -> ShardRunner {
        let shards = shards.max(1);
        let default_workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ShardRunner {
            shards,
            workers: workers.unwrap_or(default_workers).clamp(1, shards),
            sync_telemetry: Telemetry::disabled(),
            bounds: Vec::new(),
            seen_window: Vec::new(),
            attempts: 0,
            batch: Vec::new(),
            shard_entries: Vec::new(),
            stats: SyncStats::default(),
        }
    }

    /// The configured shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Merge-barrier counters so far.
    pub fn stats(&self) -> SyncStats {
        self.stats
    }

    /// Record one [`Event::ShardSync`] per window through `telemetry`.
    /// Keep this channel separate from the grid's: the main stream must
    /// not vary with the shard count.
    pub fn set_sync_telemetry(&mut self, telemetry: Telemetry) {
        self.sync_telemetry = telemetry;
    }

    /// Deliver the next event — or a whole batch window — and return how
    /// many events were processed (0 = nothing deliverable).
    ///
    /// `before` bounds delivery to instants strictly earlier (the serve
    /// loop's injection watermark); `None` runs unbounded. `allow_batch`
    /// lets a driver force the sequential path even with `shards > 1`
    /// (the serve loop does while an online tuner may adjust knobs
    /// between events).
    pub fn pump(
        &mut self,
        grid: &mut GridSystem,
        sim: &mut Simulation<GridEvent>,
        before: Option<SimTime>,
        allow_batch: bool,
    ) -> usize {
        let Some(next) = sim.peek_at() else { return 0 };
        if before.is_some_and(|b| next >= b) {
            return 0;
        }
        if self.shards > 1 && allow_batch && grid.pull_batching_eligible() {
            let n = self.window(grid, sim, before);
            if n > 0 {
                return n;
            }
        }
        match sim.step() {
            Some(ev) => {
                grid.handle(sim, ev);
                1
            }
            None => 0,
        }
    }

    /// Try to collect, execute and replay one batch window. Returns the
    /// number of events committed; 0 means the head of the queue is not
    /// batchable (everything speculatively popped has been restored).
    fn window(
        &mut self,
        grid: &mut GridSystem,
        sim: &mut Simulation<GridEvent>,
        before: Option<SimTime>,
    ) -> usize {
        let Some(period) = grid.pull_period() else {
            return 0;
        };
        let budget = sim.steps_remaining().unwrap_or(u64::MAX);
        if budget == 0 {
            return 0;
        }
        let horizon = sim.horizon();
        if self.bounds.is_empty() {
            self.bounds = grid.shard_bounds(self.shards);
            let agents = *self.bounds.last().expect("bounds are never empty");
            self.seen_window.resize(agents, 0);
        }
        let max_len = MAX_BATCH.min(budget.min(MAX_BATCH as u64) as usize);
        self.attempts += 1;
        let stamp = self.attempts;
        // A window closes at `first + period`: a batched pull's
        // reschedule lands at `its instant + period`, so nothing inside
        // the window can sort before a reschedule (at equal instants the
        // already-queued entry holds the lower seq and pops first).
        let mut closes_at = None;
        while self.batch.len() < max_len {
            let Some(t) = sim.peek_at() else { break };
            if before.is_some_and(|b| t >= b)
                || horizon.is_some_and(|h| t > h)
                || closes_at.is_some_and(|w| t > w)
            {
                break;
            }
            let Some((at, seq, ev)) = sim.pop_entry() else {
                break;
            };
            match ev {
                GridEvent::AdvertisementPull { agent }
                    if self.seen_window[agent.index()] != stamp =>
                {
                    self.seen_window[agent.index()] = stamp;
                    closes_at.get_or_insert(at + period);
                    self.batch.push(BatchEntry {
                        at,
                        seq,
                        agent,
                        pulls: 0,
                        events: Vec::new(),
                    });
                }
                other => {
                    sim.restore_entry(at, seq, other);
                    break;
                }
            }
        }
        if self.batch.len() < 2 {
            // Not worth a window; put the head back untouched.
            for e in self.batch.drain(..) {
                sim.restore_entry(e.at, e.seq, GridEvent::AdvertisementPull { agent: e.agent });
            }
            return 0;
        }

        let batched = self.batch.len();
        let busiest = self.execute(grid);
        let window = self.stats.windows;
        self.stats.windows += 1;
        self.stats.batched += batched as u64;
        self.stats.max_batch = self.stats.max_batch.max(batched as u64);
        let first = self.batch.first().expect("batch is non-empty").at;
        let shards = self.shards as u32;
        self.sync_telemetry
            .emit(first.ticks(), || Event::ShardSync {
                window,
                shards,
                batched: batched as u64,
                busiest,
            });

        // Replay: restore *all* entries first so each step sees the same
        // pending count the sequential run would, then re-deliver in
        // `(time, seq)` order and commit the carried results.
        for e in &self.batch {
            sim.restore_entry(e.at, e.seq, GridEvent::AdvertisementPull { agent: e.agent });
        }
        for e in self.batch.drain(..) {
            let ev = sim.step().expect("restored batch entry must redeliver");
            debug_assert_eq!(ev, GridEvent::AdvertisementPull { agent: e.agent });
            grid.finish_pull(sim, e.agent, e.at, e.pulls, e.events);
        }
        batched
    }

    /// Run every batched pull, shard-parallel when the window is big
    /// enough. Returns the busiest shard's entry count.
    fn execute(&mut self, grid: &mut GridSystem) -> u64 {
        let parts = grid.pull_batch_parts();
        if self.batch.len() < MIN_PARALLEL_BATCH || self.workers == 1 {
            // Inline: same per-entry work, coordinator thread only.
            let mut busy = vec![0u64; self.shards];
            let mut neighbours = Vec::new();
            for e in &mut self.batch {
                busy[shard_of(&self.bounds, e.agent)] += 1;
                e.pulls = run_pull(
                    &mut parts.agents[e.agent.index()],
                    parts.schedulers,
                    parts.templates,
                    e.at,
                    &mut neighbours,
                    &mut e.events,
                );
            }
            return busy.into_iter().max().unwrap_or(0);
        }

        self.shard_entries.resize_with(self.shards, Vec::new);
        for e in self.batch.drain(..) {
            self.shard_entries[shard_of(&self.bounds, e.agent)].push(e);
        }
        // Pair each non-empty shard's entries with its disjoint agent
        // sub-slice; distribute the pairs over scoped workers. Shard →
        // worker grouping cannot affect results (commits are per-agent
        // disjoint), so the thread count stays performance-only.
        let (schedulers, templates) = (parts.schedulers, parts.templates);
        let mut tasks: Vec<(usize, &mut [Agent], &mut Vec<BatchEntry>)> =
            Vec::with_capacity(self.shards);
        let mut rest = parts.agents;
        let mut offset = 0usize;
        for (s, entries) in self.shard_entries.iter_mut().enumerate() {
            let (lo, hi) = (self.bounds[s], self.bounds[s + 1]);
            let (slice, tail) = rest.split_at_mut(hi - offset);
            offset = hi;
            rest = tail;
            if !entries.is_empty() {
                tasks.push((lo, slice, entries));
            }
        }
        let threads = self.workers.min(tasks.len()).max(1);
        let chunk = tasks.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for group in tasks.chunks_mut(chunk) {
                scope.spawn(move || {
                    let mut neighbours = Vec::new();
                    for (lo, agents, entries) in group.iter_mut() {
                        for e in entries.iter_mut() {
                            e.pulls = run_pull(
                                &mut agents[e.agent.index() - *lo],
                                schedulers,
                                templates,
                                e.at,
                                &mut neighbours,
                                &mut e.events,
                            );
                        }
                    }
                });
            }
        });
        let mut busiest = 0u64;
        for entries in &mut self.shard_entries {
            busiest = busiest.max(entries.len() as u64);
            self.batch.append(entries);
        }
        // Merge barrier: deterministic order back from the shards.
        self.batch.sort_unstable_by_key(|e| (e.at, e.seq));
        busiest
    }
}

/// The shard owning `agent` under contiguous `bounds` (handles empty
/// shards: duplicate bounds resolve to the shard that owns the range).
fn shard_of(bounds: &[usize], agent: ResourceId) -> usize {
    bounds.partition_point(|&b| b <= agent.index()) - 1
}

/// One agent's pull against every neighbour — the worker-side half of
/// the sequential [`GridSystem::handle`] pull arm: refresh the puller's
/// own ACT row for each neighbour from its template and live freetime,
/// buffer the would-be `Advertise` telemetry in neighbour order.
fn run_pull(
    agent: &mut Agent,
    schedulers: &[SchedulerSystem],
    templates: &[ServiceInfo],
    now: SimTime,
    neighbours: &mut Vec<ResourceId>,
    events: &mut Vec<Event>,
) -> u64 {
    neighbours.clear();
    neighbours.extend(agent.neighbour_ids());
    for &n in neighbours.iter() {
        let freetime = schedulers[n.index()].freetime(now);
        agent.receive_advertisement_into(n, &templates[n.index()], freetime, now, false, events);
    }
    neighbours.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{grid_config, RunOptions};
    use agentgrid_cluster::ExecEnv;
    use agentgrid_sim::SimDuration;
    use agentgrid_telemetry::RingRecorder;
    use agentgrid_workload::{ExperimentDesign, GridTopology, WorkloadConfig};
    use std::sync::Arc;

    #[test]
    fn windows_form_and_sync_events_record() {
        // 85 agents: the bootstrap pull wave alone beats the inline
        // threshold, so the scoped-thread path executes at least once.
        let topology = GridTopology::tree(4, 4, 2);
        let workload = WorkloadConfig {
            requests: 10,
            interarrival: SimDuration::from_secs(1),
            seed: 9,
            agents: topology.names(),
            environment: ExecEnv::Test,
        };
        let mut opts = RunOptions::fast();
        opts.ga.population = 8;
        opts.ga.generations_per_event = 4;
        opts.ga.stall_generations = 2;
        let config = grid_config(&ExperimentDesign::experiment3(), workload.seed, &opts);
        let mut grid = GridSystem::new(&topology, &opts.catalog, &config);
        let mut sim = Simulation::new();
        grid.bootstrap(&mut sim, workload.generate(&opts.catalog));

        let ring = Arc::new(RingRecorder::unbounded());
        let mut runner = ShardRunner::new(4, Some(2));
        runner.set_sync_telemetry(Telemetry::new(ring.clone()));
        while runner.pump(&mut grid, &mut sim, None, true) > 0 {}

        let stats = runner.stats();
        assert!(stats.windows > 0, "batch windows must form");
        assert!(stats.batched >= 85, "the bootstrap wave must batch");
        assert!(
            stats.max_batch as usize >= MIN_PARALLEL_BATCH,
            "the thread path must have run (max batch {})",
            stats.max_batch
        );
        let sync = ring.snapshot();
        assert_eq!(sync.len() as u64, stats.windows);
        assert!(matches!(
            sync[0].event,
            Event::ShardSync {
                window: 0,
                shards: 4,
                ..
            }
        ));
        assert!(!grid.work_remains(), "run must drain to completion");
    }

    #[test]
    fn shard_of_handles_empty_shards() {
        let bounds = [0usize, 5, 5, 12];
        assert_eq!(shard_of(&bounds, ResourceId(0)), 0);
        assert_eq!(shard_of(&bounds, ResourceId(4)), 0);
        assert_eq!(shard_of(&bounds, ResourceId(5)), 2);
        assert_eq!(shard_of(&bounds, ResourceId(11)), 2);
    }
}
