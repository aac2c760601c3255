//! The local-grid scheduling system (paper §2.2, Fig. 3).
//!
//! One [`SchedulerSystem`] per grid resource assembles the six functional
//! modules of Fig. 3: the communication module is the public API surface
//! (submit / results / service information), task management is the
//! pending queue with unique ids, GA scheduling or the FIFO baseline is
//! the policy, resource monitoring drives availability, task execution is
//! virtual (test mode — completions are reported back by the simulation
//! driver), and the PACE evaluation engine is shared through the
//! demand-driven cache.
//!
//! ### Event protocol
//!
//! The driver calls [`SchedulerSystem::submit`] on request arrival,
//! [`SchedulerSystem::on_task_complete`] when a previously returned
//! [`StartedTask`]'s completion instant arrives, and
//! [`SchedulerSystem::on_monitor_poll`] on the monitor's schedule. Every
//! call returns the tasks that began executing as a consequence; the
//! driver schedules their completion events. Because planned start times
//! always coincide with `now` or with the completion of a running task,
//! this protocol never misses a start.

use crate::batch::{BatchConfig, BatchPolicy};
use crate::decode::ResourceView;
use crate::fifo::FifoPolicy;
use crate::ga::{GaConfig, GaScheduler};
use crate::policy::{AnnealingPolicy, HeuristicPolicy, HeuristicRule, LocalPolicy, SaConfig};
use crate::task::{CompletedTask, Task, TaskId};
use agentgrid_cluster::{ExecEnv, GridResource, NodeMask, ResourceMonitor};
use agentgrid_pace::{ApplicationModel, CachedEngine, NoiseModel};
use agentgrid_sim::{RngStream, SimDuration, SimTime};
use agentgrid_telemetry::{Event, Telemetry};
use std::sync::Arc;

/// Which scheduling policy a system runs (Table 2's experiment knob,
/// plus the batch-queue baseline from the paper's related work, plus
/// the pluggable policy zoo of [`crate::policy`]).
#[derive(Clone, Debug)]
pub enum PolicyConfig {
    /// First-come-first-served with the exhaustive-equivalent allocation
    /// search, fixed at arrival.
    Fifo,
    /// The genetic-algorithm scheduler.
    Ga(GaConfig),
    /// Condor/LSF-style batch queueing: user-requested node counts,
    /// strict FCFS, optional EASY backfill — no performance-driven
    /// allocation choice.
    Batch(BatchConfig),
    /// The min-min batch heuristic (smallest best-completion first).
    MinMin,
    /// The max-min batch heuristic (largest best-completion first).
    MaxMin,
    /// The sufferage batch heuristic (largest best-vs-second-best gap
    /// first).
    Sufferage,
    /// Seeded simulated annealing over the two-part coding.
    Annealing(SaConfig),
}

// FIFO and batch fix allocations at arrival and dispatch from a ledger;
// every other policy re-plans the whole pending set per event behind
// the `LocalPolicy` trait (the GA, the batch heuristics, annealing).
enum PolicyState {
    Fifo(FifoPolicy),
    Batch(BatchPolicy),
    Planned(Box<dyn LocalPolicy>),
}

/// A task that has just started executing; the driver must schedule its
/// completion event at `completion`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StartedTask {
    /// The task.
    pub id: TaskId,
    /// Nodes it runs on.
    pub mask: NodeMask,
    /// Start instant.
    pub start: SimTime,
    /// Completion instant (test mode: prediction assumed accurate).
    pub completion: SimTime,
}

/// Why a submission was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The scheduler does not offer the requested execution environment.
    UnsupportedEnvironment,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::UnsupportedEnvironment => {
                f.write_str("requested execution environment is not supported")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

struct RunningTask {
    task: Task,
    mask: NodeMask,
    start: SimTime,
    completion: SimTime,
}

/// A performance-driven local grid scheduler (one per grid resource).
pub struct SchedulerSystem {
    resource: GridResource,
    monitor: ResourceMonitor,
    engine: Arc<CachedEngine>,
    supported_envs: Vec<ExecEnv>,
    pending: Vec<Task>,
    running: Vec<RunningTask>,
    completed: Vec<CompletedTask>,
    policy: PolicyState,
    plan_makespan: SimTime,
    noise: NoiseModel,
    noise_rng: RngStream,
    telemetry: Telemetry,
}

impl SchedulerSystem {
    /// Build a scheduler for `resource` under `policy`, sharing the PACE
    /// cache `engine`. The GA draws randomness from `rng`.
    pub fn new(
        resource: GridResource,
        policy: PolicyConfig,
        engine: Arc<CachedEngine>,
        rng: RngStream,
    ) -> SchedulerSystem {
        let nproc = resource.nproc();
        let noise_rng = rng.derive("noise");
        let policy = match policy {
            PolicyConfig::Fifo => PolicyState::Fifo(FifoPolicy::new(nproc)),
            PolicyConfig::Ga(cfg) => PolicyState::Planned(Box::new(GaScheduler::new(cfg, rng))),
            PolicyConfig::Batch(cfg) => PolicyState::Batch(BatchPolicy::new(cfg)),
            PolicyConfig::MinMin => {
                PolicyState::Planned(Box::new(HeuristicPolicy::new(HeuristicRule::MinMin)))
            }
            PolicyConfig::MaxMin => {
                PolicyState::Planned(Box::new(HeuristicPolicy::new(HeuristicRule::MaxMin)))
            }
            PolicyConfig::Sufferage => {
                PolicyState::Planned(Box::new(HeuristicPolicy::new(HeuristicRule::Sufferage)))
            }
            PolicyConfig::Annealing(cfg) => {
                PolicyState::Planned(Box::new(AnnealingPolicy::new(cfg, rng)))
            }
        };
        let _ = nproc;
        SchedulerSystem {
            resource,
            monitor: ResourceMonitor::default(),
            engine,
            supported_envs: vec![ExecEnv::Mpi, ExecEnv::Pvm, ExecEnv::Test],
            pending: Vec::new(),
            running: Vec::new(),
            completed: Vec::new(),
            policy,
            plan_makespan: SimTime::ZERO,
            noise: NoiseModel::Exact,
            noise_rng,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Record task-lifecycle telemetry (submit/start/finish/deadline
    /// miss), and wire the GA kernel's per-generation events when this
    /// system runs the GA policy. Disabled by default.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        if let PolicyState::Planned(policy) = &mut self.policy {
            policy.set_telemetry(telemetry.clone(), self.resource.name());
        }
        self.telemetry = telemetry;
    }

    /// Enable a prediction-error model: from now on every dispatched
    /// task's *actual* duration is its prediction scaled by a factor
    /// drawn from `model`. Planning continues to use the raw predictions
    /// — the point of the paper's accuracy-sensitivity future work.
    pub fn set_noise(&mut self, model: NoiseModel) {
        self.noise = model;
    }

    /// The prediction-error model in force.
    pub fn noise(&self) -> NoiseModel {
        self.noise
    }

    /// The grid resource this scheduler manages.
    pub fn resource(&self) -> &GridResource {
        &self.resource
    }

    /// Mutable access to the monitor (for failure injection).
    pub fn monitor_mut(&mut self) -> &mut ResourceMonitor {
        &mut self.monitor
    }

    /// Execution environments offered (advertised in service info).
    pub fn supported_envs(&self) -> &[ExecEnv] {
        &self.supported_envs
    }

    /// Restrict the offered environments.
    pub fn set_supported_envs(&mut self, envs: Vec<ExecEnv>) {
        self.supported_envs = envs;
    }

    /// Whether the given environment is offered.
    pub fn supports(&self, env: ExecEnv) -> bool {
        self.supported_envs.contains(&env)
    }

    /// Tasks queued but not yet executing.
    pub fn queue_len(&self) -> usize {
        self.pending.len()
    }

    /// Tasks currently executing.
    pub fn running_len(&self) -> usize {
        self.running.len()
    }

    /// Finished tasks with their final allocations.
    pub fn completed(&self) -> &[CompletedTask] {
        &self.completed
    }

    /// The shared PACE evaluation cache.
    pub fn engine(&self) -> &Arc<CachedEngine> {
        &self.engine
    }

    /// The *freetime* this scheduler advertises (§3.2): the latest
    /// scheduling makespan — the earliest (approximate) instant its
    /// processors become available for more tasks.
    pub fn freetime(&self, now: SimTime) -> SimTime {
        self.plan_makespan.max(self.resource.makespan()).max(now)
    }

    /// Estimate the completion instant of a hypothetical task of `app`
    /// submitted now (eq. 10): advertised freetime plus the best predicted
    /// execution time over all processor counts.
    pub fn estimate_completion(&self, app: &ApplicationModel, now: SimTime) -> SimTime {
        let (_, best) = self.engine.best_time(app, self.resource.model());
        self.freetime(now) + SimDuration::from_secs_f64(best)
    }

    /// Submit a task (communication module input). Returns the tasks that
    /// started executing as an immediate consequence.
    pub fn submit(&mut self, task: Task, now: SimTime) -> Result<Vec<StartedTask>, SubmitError> {
        if !self.supports(task.env) {
            return Err(SubmitError::UnsupportedEnvironment);
        }
        self.telemetry.emit(now.ticks(), || Event::TaskSubmit {
            task: task.id.0,
            resource: self.resource.name().to_string(),
            deadline: task.deadline.ticks(),
        });
        let started = match &mut self.policy {
            PolicyState::Fifo(fifo) => {
                let available = self.resource.available_mask();
                if available.is_empty() {
                    // Nothing to plan against; hold the task until a poll
                    // brings nodes back.
                    self.pending.push(task);
                    Vec::new()
                } else {
                    fifo.assign(&task, now, available, self.resource.model(), &self.engine);
                    self.pending.push(task);
                    self.plan_makespan = fifo.makespan();
                    self.start_due_fifo(now)
                }
            }
            PolicyState::Planned(policy) => {
                self.pending.push(task);
                policy.absorb_added_task(self.resource.nproc());
                self.replan(now)
            }
            PolicyState::Batch(batch) => {
                // The "user" requests the application's reference-optimum
                // node count; the batch system never second-guesses it.
                let (k, runtime) = self.engine.best_time(&task.app, self.resource.model());
                batch.enqueue(task.id, k, runtime);
                self.pending.push(task);
                self.start_due_batch(now)
            }
        };
        // Sampled *after* planning absorbed the submit, so checkers can
        // hold the advertised freetime against the instant and the ledger.
        self.telemetry.emit(now.ticks(), || Event::FreetimeSample {
            resource: self.resource.name().to_string(),
            freetime: self.freetime(now).ticks(),
            committed: self.resource.makespan().ticks(),
        });
        Ok(started)
    }

    /// Cancel a task that has not started executing ("task management
    /// also interfaces with the operations on the task queue, including
    /// adding, deleting or inserting tasks"). Running or unknown tasks
    /// are not cancellable; returns whether a task was removed. Under the
    /// GA the population absorbs the deletion; under FIFO the fixed
    /// allocation is dropped (its reserved slot simply goes unused —
    /// fixed plans are never re-optimised, matching the baseline's
    /// semantics).
    ///
    /// Returns `None` if the task was not pending; otherwise any tasks
    /// that started as a consequence of the re-plan (the caller must
    /// schedule their completions, as with [`SchedulerSystem::submit`]).
    pub fn cancel(&mut self, id: TaskId, now: SimTime) -> Option<Vec<StartedTask>> {
        let pos = self.pending.iter().position(|t| t.id == id)?;
        self.pending.remove(pos);
        match &mut self.policy {
            PolicyState::Planned(policy) => {
                policy.absorb_removed_task(pos);
                // Re-plan so the freed capacity is advertised promptly.
                Some(self.replan(now))
            }
            PolicyState::Fifo(fifo) => {
                fifo.drop_task(id);
                Some(Vec::new())
            }
            PolicyState::Batch(batch) => {
                batch.remove(id);
                Some(self.start_due_batch(now))
            }
        }
    }

    /// Drain every *queued* task for a planned scale-down: pending tasks
    /// are removed and returned (sorted by id) for grid-level
    /// re-placement, while running tasks keep executing to completion —
    /// the graceful half of [`SchedulerSystem::crash`]. The resource
    /// ledger and completed history are untouched.
    pub fn drain_pending(&mut self, _now: SimTime) -> Vec<Task> {
        match &mut self.policy {
            PolicyState::Planned(policy) => {
                // Remove from the tail so earlier indices stay valid.
                for pos in (0..self.pending.len()).rev() {
                    policy.absorb_removed_task(pos);
                }
            }
            PolicyState::Fifo(fifo) => {
                for t in &self.pending {
                    fifo.drop_task(t.id);
                }
            }
            PolicyState::Batch(batch) => {
                for t in &self.pending {
                    batch.remove(t.id);
                }
            }
        }
        let mut drained = std::mem::take(&mut self.pending);
        drained.sort_by_key(|t| t.id.0);
        drained
    }

    /// The planned policy's search budget (GA: generations per event;
    /// annealing: iterations), or `None` when the policy has no such
    /// knob (FIFO, batch, the stateless heuristics).
    pub fn ga_generations(&self) -> Option<usize> {
        match &self.policy {
            PolicyState::Planned(policy) => policy.budget(),
            _ => None,
        }
    }

    /// Adjust the search budget at runtime (no-op for policies without
    /// one; returns whether the knob existed). Search budget only —
    /// queue contents and bookkeeping are untouched.
    pub fn set_ga_generations(&mut self, generations: usize) -> bool {
        match &mut self.policy {
            PolicyState::Planned(policy) => policy.set_budget(generations),
            _ => false,
        }
    }

    /// The stable lowercase name of the policy in force (`"fifo"`,
    /// `"ga"`, `"batch"`, `"minmin"`, …).
    pub fn policy_name(&self) -> &'static str {
        match &self.policy {
            PolicyState::Fifo(_) => "fifo",
            PolicyState::Batch(_) => "batch",
            PolicyState::Planned(policy) => policy.name(),
        }
    }

    /// Whether `id` is currently executing here. The grid's chaos layer
    /// uses this to recognise completion events that outlived a crash.
    pub fn is_running(&self, id: TaskId) -> bool {
        self.running.iter().any(|r| r.task.id == id)
    }

    /// The recorded completion instant of a currently running task, or
    /// `None` if `id` is not running here. A genuine completion event
    /// always fires at exactly this instant, so the chaos layer can
    /// tell a live completion from one scheduled for a lost-and-
    /// resubmitted incarnation of the same task.
    pub fn running_completion(&self, id: TaskId) -> Option<SimTime> {
        self.running
            .iter()
            .find(|r| r.task.id == id)
            .map(|r| r.completion)
    }

    /// Crash this scheduler's resource at `now`: every running and
    /// queued task is lost and returned (sorted by id) for grid-level
    /// recovery, in-flight allocations are truncated on the resource
    /// ledger, and the plan is reset so a restarted scheduler starts
    /// from a clean slate. Completed-task history survives — it already
    /// happened.
    pub fn crash(&mut self, now: SimTime) -> Vec<Task> {
        let mut lost: Vec<Task> = Vec::with_capacity(self.pending.len() + self.running.len());
        lost.extend(self.running.drain(..).map(|r| r.task));
        match &mut self.policy {
            PolicyState::Planned(policy) => {
                // Remove from the tail so earlier indices stay valid.
                for pos in (0..self.pending.len()).rev() {
                    policy.absorb_removed_task(pos);
                }
            }
            PolicyState::Fifo(_) => {
                // The FIFO plan ledger only ever grows; rebuild it fresh
                // below instead of dropping reservations one by one.
            }
            PolicyState::Batch(batch) => {
                for t in &self.pending {
                    batch.remove(t.id);
                }
            }
        }
        lost.append(&mut self.pending);
        self.resource.abort_running(now);
        if let PolicyState::Fifo(_) = self.policy {
            self.policy = PolicyState::Fifo(FifoPolicy::new(self.resource.nproc()));
        }
        self.plan_makespan = SimTime::ZERO;
        lost.sort_by_key(|t| t.id.0);
        lost
    }

    /// Report that a running task's completion instant has arrived.
    /// Returns the tasks that started as a consequence.
    pub fn on_task_complete(&mut self, id: TaskId, now: SimTime) -> Vec<StartedTask> {
        if let Some(pos) = self.running.iter().position(|r| r.task.id == id) {
            let r = self.running.swap_remove(pos);
            // A completion at any other instant is a stale event processed
            // as real. Release builds report it to the invariant checker
            // (a correct run never emits this, so its stream is unchanged);
            // debug builds also stop here.
            if r.completion != now {
                self.telemetry
                    .emit(now.ticks(), || Event::CompletionMisfire {
                        task: id.0,
                        resource: self.resource.name().to_string(),
                        announced: r.completion.ticks(),
                    });
            }
            debug_assert!(r.completion == now, "completion event at the wrong instant");
            let deadline = r.task.deadline;
            let met = r.completion <= deadline;
            self.telemetry.emit(now.ticks(), || Event::TaskFinish {
                task: id.0,
                resource: self.resource.name().to_string(),
                deadline_met: met,
            });
            if !met {
                let late = r.completion.saturating_since(deadline);
                self.telemetry
                    .emit(now.ticks(), || Event::TaskDeadlineMiss {
                        task: id.0,
                        resource: self.resource.name().to_string(),
                        late: late.ticks(),
                    });
            }
            self.completed.push(CompletedTask {
                resource: self.resource.name().to_string(),
                task: r.task,
                mask: r.mask,
                start: r.start,
                completion: r.completion,
            });
        }
        match &mut self.policy {
            PolicyState::Fifo(_) => self.start_due_fifo(now),
            PolicyState::Planned(_) => self.replan(now),
            PolicyState::Batch(_) => self.start_due_batch(now),
        }
    }

    /// Run a monitor poll (availability refresh) and restart planning.
    pub fn on_monitor_poll(&mut self, now: SimTime) -> Vec<StartedTask> {
        self.monitor.poll(now, &mut self.resource);
        match &mut self.policy {
            PolicyState::Fifo(fifo) => {
                // Fixed plans are never revisited, but tasks held while
                // all nodes were down can be planned now.
                let available = self.resource.available_mask();
                if !available.is_empty() {
                    // Plan any tasks the policy has no allocation for yet
                    // (those submitted during a full outage, which sit at
                    // the tail of the pending queue in arrival order).
                    let missing = self.pending.len().saturating_sub(fifo.pending());
                    if missing > 0 {
                        let tail = self.pending.len() - missing;
                        let unplanned: Vec<Task> = self.pending[tail..].to_vec();
                        for task in &unplanned {
                            fifo.assign(task, now, available, self.resource.model(), &self.engine);
                        }
                    }
                    self.plan_makespan = fifo.makespan();
                }
                self.start_due_fifo(now)
            }
            PolicyState::Planned(_) => self.replan(now),
            PolicyState::Batch(_) => self.start_due_batch(now),
        }
    }

    /// Batch: start every job the FCFS(+backfill) rules admit, commit
    /// them to the ledger and refresh the advertised makespan.
    fn start_due_batch(&mut self, now: SimTime) -> Vec<StartedTask> {
        let PolicyState::Batch(batch) = &mut self.policy else {
            unreachable!("start_due_batch under a non-batch policy");
        };
        let starts = batch.try_start(now, &self.resource);
        let mut started = Vec::with_capacity(starts.len());
        for b in starts {
            let Some(pos) = self.pending.iter().position(|t| t.id == b.id) else {
                continue;
            };
            let task = self.pending.remove(pos);
            let predicted = b.completion.saturating_since(now);
            let completion = if self.noise.is_exact() {
                now + predicted
            } else {
                let factor = self.noise.factor(&mut self.noise_rng);
                now + SimDuration::from_secs_f64(predicted.as_secs_f64() * factor)
            };
            self.resource.commit(b.id.0, b.mask, now, completion);
            self.telemetry.emit(now.ticks(), || Event::TaskStart {
                task: b.id.0,
                resource: self.resource.name().to_string(),
                nodes: b.mask.count() as u32,
                queue_wait: now.saturating_since(task.arrival).ticks(),
            });
            started.push(StartedTask {
                id: b.id,
                mask: b.mask,
                start: now,
                completion,
            });
            self.running.push(RunningTask {
                task,
                mask: b.mask,
                start: now,
                completion,
            });
        }
        let PolicyState::Batch(batch) = &mut self.policy else {
            unreachable!("policy changed mid-call");
        };
        self.plan_makespan = batch.plan_makespan(now, &self.resource);
        started
    }

    /// FIFO: dispatch the prefix of fixed allocations whose node sets
    /// are actually free. With exact predictions the actual ledger and
    /// the plan ledger agree and this is precisely "start every task
    /// whose planned start has arrived"; under prediction noise it
    /// follows reality instead of the stale plan.
    fn start_due_fifo(&mut self, now: SimTime) -> Vec<StartedTask> {
        let PolicyState::Fifo(fifo) = &mut self.policy else {
            unreachable!("start_due_fifo under GA policy");
        };
        let mut started = Vec::new();
        // One dispatch at a time: each commit updates the real ledger
        // before the next head is tested, so a pair of planned-sequential
        // tasks sharing a node can never both launch at the same instant.
        while let Some(&(id, alloc)) = fifo.peek_head() {
            if self.resource.free_time_of(alloc.mask) > now {
                break;
            }
            fifo.pop_head();
            let Some(pos) = self.pending.iter().position(|t| t.id == id) else {
                continue;
            };
            let task = self.pending.remove(pos);
            // Dispatch at the event instant: the plan's start can be in
            // the past (observed late via a poll) or in the future (an
            // under-running predecessor freed the nodes early).
            let start = now;
            let predicted = alloc.completion.saturating_since(alloc.start);
            let completion = if self.noise.is_exact() {
                start + predicted
            } else {
                let factor = self.noise.factor(&mut self.noise_rng);
                start + SimDuration::from_secs_f64(predicted.as_secs_f64() * factor)
            };
            self.resource.commit(id.0, alloc.mask, start, completion);
            self.telemetry.emit(start.ticks(), || Event::TaskStart {
                task: id.0,
                resource: self.resource.name().to_string(),
                nodes: alloc.mask.count() as u32,
                queue_wait: start.saturating_since(task.arrival).ticks(),
            });
            started.push(StartedTask {
                id,
                mask: alloc.mask,
                start,
                completion,
            });
            self.running.push(RunningTask {
                task,
                mask: alloc.mask,
                start,
                completion,
            });
        }
        started
    }

    /// Planned policies (GA, heuristics, annealing): re-plan the pending
    /// set, commit due placements, advertise the new makespan.
    fn replan(&mut self, now: SimTime) -> Vec<StartedTask> {
        let PolicyState::Planned(policy) = &mut self.policy else {
            unreachable!("replan under a fixed-allocation policy");
        };
        let Some(view) = ResourceView::snapshot(&self.resource, now) else {
            return Vec::new(); // full outage: hold everything
        };
        let outcome = policy.plan(&view, &self.pending, &self.engine);
        self.plan_makespan = outcome.schedule.makespan;

        // Placements due now, in descending pending-index order so removal
        // keeps earlier indices (and the policy's absorbed indices) valid.
        let mut due: Vec<_> = outcome
            .schedule
            .placements
            .iter()
            .filter(|p| p.start <= now)
            .copied()
            .collect();
        due.sort_by_key(|p| std::cmp::Reverse(p.task));

        let mut started = Vec::with_capacity(due.len());
        for p in due {
            let task = self.pending.remove(p.task);
            policy.absorb_removed_task(p.task);
            let predicted = p.completion.saturating_since(p.start);
            let completion = {
                // `policy` borrows self.policy; compute noise inline.
                if self.noise.is_exact() {
                    p.start + predicted
                } else {
                    let factor = self.noise.factor(&mut self.noise_rng);
                    p.start + SimDuration::from_secs_f64(predicted.as_secs_f64() * factor)
                }
            };
            self.resource.commit(task.id.0, p.mask, p.start, completion);
            self.telemetry.emit(p.start.ticks(), || Event::TaskStart {
                task: task.id.0,
                resource: self.resource.name().to_string(),
                nodes: p.mask.count() as u32,
                queue_wait: p.start.saturating_since(task.arrival).ticks(),
            });
            started.push(StartedTask {
                id: task.id,
                mask: p.mask,
                start: p.start,
                completion,
            });
            self.running.push(RunningTask {
                task,
                mask: p.mask,
                start: p.start,
                completion,
            });
        }
        started.sort_by_key(|s| (s.start, s.id.0));
        started
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agentgrid_pace::{AppId, ApplicationModel, ModelCurve, Platform, TabulatedModel};

    fn app(times: Vec<f64>) -> Arc<ApplicationModel> {
        // Distinct ids per model: the evaluation cache keys on the id.
        use std::sync::atomic::{AtomicU32, Ordering};
        static NEXT: AtomicU32 = AtomicU32::new(0);
        Arc::new(
            ApplicationModel::new(
                AppId(NEXT.fetch_add(1, Ordering::Relaxed)),
                "t",
                ModelCurve::Tabulated(TabulatedModel::new(times).unwrap()),
                (1.0, 1000.0),
            )
            .unwrap(),
        )
    }

    fn mk_task(id: u64, app: &Arc<ApplicationModel>, deadline_s: u64) -> Task {
        Task::new(
            TaskId(id),
            app.clone(),
            SimTime::ZERO,
            SimTime::from_secs(deadline_s),
            ExecEnv::Test,
        )
    }

    fn fifo_system(nproc: usize) -> SchedulerSystem {
        SchedulerSystem::new(
            GridResource::new("S1", Platform::sgi_origin2000(), nproc),
            PolicyConfig::Fifo,
            Arc::new(CachedEngine::new()),
            RngStream::root(1),
        )
    }

    fn ga_system(nproc: usize, seed: u64) -> SchedulerSystem {
        SchedulerSystem::new(
            GridResource::new("S1", Platform::sgi_origin2000(), nproc),
            PolicyConfig::Ga(GaConfig::default()),
            Arc::new(CachedEngine::new()),
            RngStream::root(seed),
        )
    }

    /// Drive a system to quiescence, returning all completions in order.
    fn drain(system: &mut SchedulerSystem, mut started: Vec<StartedTask>) -> Vec<StartedTask> {
        let mut all = started.clone();
        while !started.is_empty() {
            started.sort_by_key(|s| (s.completion, s.id.0));
            let next = started.remove(0);
            let newly = system.on_task_complete(next.id, next.completion);
            all.extend(newly.iter().copied());
            started.extend(newly);
        }
        all
    }

    #[test]
    fn unsupported_environment_is_rejected() {
        let mut s = fifo_system(2);
        s.set_supported_envs(vec![ExecEnv::Mpi]);
        let a = app(vec![10.0, 6.0]);
        let err = s.submit(mk_task(1, &a, 100), SimTime::ZERO).unwrap_err();
        assert_eq!(err, SubmitError::UnsupportedEnvironment);
    }

    #[test]
    fn fifo_runs_tasks_to_completion() {
        let mut s = fifo_system(2);
        let a = app(vec![10.0, 10.0]);
        let mut started = Vec::new();
        for id in 1..=3 {
            started.extend(s.submit(mk_task(id, &a, 1000), SimTime::ZERO).unwrap());
        }
        assert_eq!(started.len(), 2, "two nodes, two immediate starts");
        drain(&mut s, started);
        assert_eq!(s.completed().len(), 3);
        assert_eq!(s.queue_len(), 0);
        assert_eq!(s.running_len(), 0);
        // Third task ran 10..20 on whichever node freed first.
        let last = s
            .completed()
            .iter()
            .find(|c| c.task.id == TaskId(3))
            .unwrap();
        assert_eq!(last.start, SimTime::from_secs(10));
        assert_eq!(last.completion, SimTime::from_secs(20));
    }

    #[test]
    fn ga_runs_tasks_to_completion() {
        let mut s = ga_system(4, 5);
        let a = app(vec![12.0, 8.0, 6.0, 5.0]);
        let mut started = Vec::new();
        for id in 1..=6 {
            started.extend(s.submit(mk_task(id, &a, 600), SimTime::ZERO).unwrap());
        }
        drain(&mut s, started);
        assert_eq!(s.completed().len(), 6);
        assert_eq!(s.queue_len(), 0);
        // Every completion honoured the PACE prediction for its node count.
        for c in s.completed() {
            let expected = s
                .engine()
                .evaluate(&c.task.app, s.resource().model(), c.mask.count());
            let got = c.completion.saturating_since(c.start).as_secs_f64();
            assert!((got - expected).abs() < 1e-6);
        }
    }

    #[test]
    fn freetime_tracks_plan_makespan() {
        let mut s = fifo_system(1);
        let a = app(vec![10.0]);
        assert_eq!(s.freetime(SimTime::ZERO), SimTime::ZERO);
        s.submit(mk_task(1, &a, 1000), SimTime::ZERO).unwrap();
        s.submit(mk_task(2, &a, 1000), SimTime::ZERO).unwrap();
        assert_eq!(s.freetime(SimTime::ZERO), SimTime::from_secs(20));
        // freetime never reports the past.
        assert_eq!(s.freetime(SimTime::from_secs(50)), SimTime::from_secs(50));
    }

    #[test]
    fn estimate_completion_uses_best_processor_count() {
        let s = fifo_system(4);
        let a = app(vec![40.0, 20.0, 13.0, 10.0]);
        let eta = s.estimate_completion(&a, SimTime::ZERO);
        assert_eq!(eta, SimTime::from_secs(10));
    }

    #[test]
    fn ga_respects_deadlines_when_feasible() {
        let mut s = ga_system(4, 7);
        let a = app(vec![10.0; 4]);
        let mut started = Vec::new();
        for id in 1..=4 {
            started.extend(s.submit(mk_task(id, &a, 15), SimTime::ZERO).unwrap());
        }
        drain(&mut s, started);
        assert_eq!(s.completed().len(), 4);
        for c in s.completed() {
            assert!(c.met_deadline(), "{:?} missed", c.task.id);
        }
    }

    #[test]
    fn submissions_at_different_times_queue_correctly() {
        let mut s = fifo_system(1);
        let a = app(vec![10.0]);
        let st1 = s.submit(mk_task(1, &a, 1000), SimTime::ZERO).unwrap();
        assert_eq!(st1.len(), 1);
        // Second task arrives mid-execution of the first.
        let st2 = s
            .submit(mk_task(2, &a, 1000), SimTime::from_secs(4))
            .unwrap();
        assert!(st2.is_empty());
        let st3 = s.on_task_complete(TaskId(1), SimTime::from_secs(10));
        assert_eq!(st3.len(), 1);
        assert_eq!(st3[0].start, SimTime::from_secs(10));
    }

    #[test]
    fn monitor_poll_is_safe_noop_when_nothing_changed() {
        let mut s = ga_system(2, 9);
        let started = s.on_monitor_poll(SimTime::ZERO);
        assert!(started.is_empty());
    }

    #[test]
    fn noise_perturbs_actual_durations_but_loses_no_task() {
        use agentgrid_pace::NoiseModel;
        for policy in [true, false] {
            let mut s = if policy {
                ga_system(4, 21)
            } else {
                fifo_system(4)
            };
            s.set_noise(NoiseModel::Uniform { rel: 0.4 });
            let a = app(vec![20.0, 12.0, 9.0, 8.0]);
            let mut started = Vec::new();
            for id in 1..=10 {
                started.extend(s.submit(mk_task(id, &a, 1000), SimTime::ZERO).unwrap());
            }
            drain(&mut s, started);
            assert_eq!(s.completed().len(), 10);
            // Some durations must deviate from the prediction, all within
            // the ±40 % band.
            let mut deviated = 0;
            for c in s.completed() {
                let predicted =
                    s.engine()
                        .evaluate(&c.task.app, s.resource().model(), c.mask.count());
                let actual = c.completion.saturating_since(c.start).as_secs_f64();
                let ratio = actual / predicted;
                assert!(
                    (0.6..=1.4).contains(&ratio),
                    "ratio {ratio} outside the noise band"
                );
                if (ratio - 1.0).abs() > 1e-9 {
                    deviated += 1;
                }
            }
            assert!(deviated >= 8, "noise must actually perturb runs");
        }
    }

    #[test]
    fn noise_never_double_books_nodes() {
        use agentgrid_pace::NoiseModel;
        let mut s = fifo_system(2);
        s.set_noise(NoiseModel::LogNormal { sigma: 0.5 });
        let a = app(vec![10.0, 10.0]);
        let mut started = Vec::new();
        for id in 1..=12 {
            started.extend(s.submit(mk_task(id, &a, 1000), SimTime::ZERO).unwrap());
        }
        drain(&mut s, started);
        assert_eq!(s.completed().len(), 12);
        let mut per_node: Vec<Vec<(SimTime, SimTime)>> = vec![vec![]; 2];
        for alloc in s.resource().allocations() {
            for i in alloc.mask.iter() {
                per_node[i].push((alloc.start, alloc.end));
            }
        }
        for intervals in &mut per_node {
            intervals.sort();
            for w in intervals.windows(2) {
                assert!(w[0].1 <= w[1].0, "overlap under noise");
            }
        }
    }

    #[test]
    fn cancel_removes_pending_tasks_only() {
        for ga in [true, false] {
            let mut s = if ga { ga_system(1, 44) } else { fifo_system(1) };
            let a = app(vec![10.0]);
            // Task 1 starts immediately; 2 and 3 queue behind it.
            let mut started = Vec::new();
            for id in 1..=3 {
                started.extend(s.submit(mk_task(id, &a, 1000), SimTime::ZERO).unwrap());
            }
            assert_eq!(s.queue_len(), 2);
            // Running task is not cancellable.
            assert!(s.cancel(TaskId(1), SimTime::ZERO).is_none());
            // Unknown task is not cancellable.
            assert!(s.cancel(TaskId(99), SimTime::ZERO).is_none());
            // Pending task 2 is.
            let extra = s.cancel(TaskId(2), SimTime::ZERO).expect("task 2 pending");
            started.extend(extra);
            assert_eq!(s.queue_len(), 1);
            drain(&mut s, started);
            let ids: Vec<u64> = s.completed().iter().map(|c| c.task.id.0).collect();
            assert!(ids.contains(&1) && ids.contains(&3) && !ids.contains(&2));
        }
    }

    #[test]
    fn cancel_frees_ga_capacity_for_later_tasks() {
        let mut s = ga_system(1, 45);
        let a = app(vec![100.0]);
        let quick = app(vec![5.0]);
        let mut started = Vec::new();
        started.extend(s.submit(mk_task(1, &a, 10_000), SimTime::ZERO).unwrap());
        started.extend(s.submit(mk_task(2, &a, 10_000), SimTime::ZERO).unwrap());
        started.extend(s.submit(mk_task(3, &quick, 10_000), SimTime::ZERO).unwrap());
        // Cancel the queued long task; the quick task should now complete
        // right after the running one (t = 105) instead of t = 205.
        s.cancel(TaskId(2), SimTime::ZERO).expect("pending");
        drain(&mut s, started);
        let quick_done = s
            .completed()
            .iter()
            .find(|c| c.task.id == TaskId(3))
            .expect("quick task ran");
        assert_eq!(quick_done.completion, SimTime::from_secs(105));
    }

    #[test]
    fn cancel_of_running_task_with_pending_poll_leaves_no_ghost_completion() {
        // Regression: a cancel aimed at the *running* task while a monitor
        // poll is outstanding must refuse cleanly — the poll must not start
        // anything on the busy node, the already-scheduled completion event
        // must still land, and the task must complete exactly once.
        for ga in [true, false] {
            let mut s = if ga { ga_system(1, 46) } else { fifo_system(1) };
            let a = app(vec![10.0]);
            let started = s.submit(mk_task(1, &a, 1000), SimTime::ZERO).unwrap();
            assert_eq!(started.len(), 1, "ga={ga}: one node, one start");
            let completion = started[0].completion;
            assert!(s
                .submit(mk_task(2, &a, 1000), SimTime::ZERO)
                .unwrap()
                .is_empty());
            assert_eq!(s.queue_len(), 1, "ga={ga}: task 2 queued behind");

            // The running task is not cancellable; nothing is disturbed.
            assert!(s.cancel(TaskId(1), SimTime::from_secs(2)).is_none());
            assert!(s.is_running(TaskId(1)), "ga={ga}");
            assert_eq!(s.running_len(), 1, "ga={ga}");
            assert_eq!(s.queue_len(), 1, "ga={ga}");
            assert_eq!(s.running_completion(TaskId(1)), Some(completion));

            // The pending poll fires mid-run: the node is still busy, so
            // no task may start and the refused cancel must not resurface.
            let mid = s.on_monitor_poll(SimTime::from_secs(5));
            assert!(
                mid.is_empty(),
                "ga={ga}: poll started {mid:?} on a busy node"
            );
            assert!(s.is_running(TaskId(1)), "ga={ga}");
            assert_eq!(s.completed().len(), 0, "ga={ga}: nothing completed yet");

            // The completion event scheduled at submit time still lands.
            let after = s.on_task_complete(TaskId(1), completion);
            drain(&mut s, after);

            let firsts = s
                .completed()
                .iter()
                .filter(|c| c.task.id == TaskId(1))
                .count();
            assert_eq!(firsts, 1, "ga={ga}: exactly one completion for task 1");
            assert_eq!(s.completed().len(), 2, "ga={ga}: both tasks ran");
            assert_eq!(s.queue_len(), 0, "ga={ga}");
            assert_eq!(s.running_len(), 0, "ga={ga}");
        }
    }

    #[test]
    fn crash_loses_queued_and_running_work() {
        for ga in [true, false] {
            let mut s = if ga { ga_system(1, 77) } else { fifo_system(1) };
            let a = app(vec![10.0]);
            // Task 1 runs; 2 and 3 queue behind it.
            for id in 1..=3 {
                s.submit(mk_task(id, &a, 1000), SimTime::ZERO).unwrap();
            }
            assert!(s.is_running(TaskId(1)));
            assert_eq!(s.queue_len(), 2);
            let lost = s.crash(SimTime::from_secs(4));
            let ids: Vec<u64> = lost.iter().map(|t| t.id.0).collect();
            assert_eq!(ids, [1, 2, 3], "everything not completed is lost");
            assert_eq!(s.queue_len(), 0);
            assert_eq!(s.running_len(), 0);
            assert!(!s.is_running(TaskId(1)));
            assert!(s.completed().is_empty());
            // The ledger is truncated at the crash: freetime == now.
            assert_eq!(s.freetime(SimTime::from_secs(4)), SimTime::from_secs(4));
            // The restarted scheduler accepts and completes new work.
            let started = s
                .submit(mk_task(4, &a, 1000), SimTime::from_secs(4))
                .unwrap();
            assert_eq!(started.len(), 1);
            assert_eq!(started[0].start, SimTime::from_secs(4));
            drain(&mut s, started);
            assert_eq!(s.completed().len(), 1);
        }
    }

    #[test]
    fn crash_then_resubmit_completes_the_lost_tasks() {
        let mut s = ga_system(2, 78);
        let a = app(vec![10.0, 10.0]);
        let mut started = Vec::new();
        for id in 1..=4 {
            started.extend(s.submit(mk_task(id, &a, 1000), SimTime::ZERO).unwrap());
        }
        let lost = s.crash(SimTime::from_secs(3));
        assert_eq!(lost.len(), 4);
        // Re-submit everything at the restart instant, as the grid does.
        let mut started = Vec::new();
        for t in lost {
            started.extend(s.submit(t, SimTime::from_secs(30)).unwrap());
        }
        drain(&mut s, started);
        assert_eq!(s.completed().len(), 4);
        let ids: std::collections::BTreeSet<u64> =
            s.completed().iter().map(|c| c.task.id.0).collect();
        assert_eq!(ids.len(), 4, "each task completes exactly once");
    }

    #[test]
    fn zoo_policies_run_tasks_to_completion() {
        for cfg in [
            PolicyConfig::MinMin,
            PolicyConfig::MaxMin,
            PolicyConfig::Sufferage,
            PolicyConfig::Annealing(SaConfig::default()),
        ] {
            let mut s = SchedulerSystem::new(
                GridResource::new("S1", Platform::sgi_origin2000(), 4),
                cfg,
                Arc::new(CachedEngine::new()),
                RngStream::root(91),
            );
            let a = app(vec![12.0, 8.0, 6.0, 5.0]);
            let mut started = Vec::new();
            for id in 1..=6 {
                started.extend(s.submit(mk_task(id, &a, 600), SimTime::ZERO).unwrap());
            }
            drain(&mut s, started);
            assert_eq!(s.completed().len(), 6, "{}", s.policy_name());
            assert_eq!(s.queue_len(), 0, "{}", s.policy_name());
            assert_eq!(s.running_len(), 0, "{}", s.policy_name());
        }
    }

    #[test]
    fn policy_names_are_stable_tokens() {
        let mk = |cfg| {
            SchedulerSystem::new(
                GridResource::new("S1", Platform::sgi_origin2000(), 2),
                cfg,
                Arc::new(CachedEngine::new()),
                RngStream::root(1),
            )
        };
        assert_eq!(mk(PolicyConfig::Fifo).policy_name(), "fifo");
        assert_eq!(
            mk(PolicyConfig::Ga(GaConfig::default())).policy_name(),
            "ga"
        );
        assert_eq!(
            mk(PolicyConfig::Batch(BatchConfig::default())).policy_name(),
            "batch"
        );
        assert_eq!(mk(PolicyConfig::MinMin).policy_name(), "minmin");
        assert_eq!(mk(PolicyConfig::MaxMin).policy_name(), "maxmin");
        assert_eq!(mk(PolicyConfig::Sufferage).policy_name(), "sufferage");
        assert_eq!(
            mk(PolicyConfig::Annealing(SaConfig::default())).policy_name(),
            "anneal"
        );
    }

    #[test]
    fn zoo_policies_support_cancel_and_crash() {
        for cfg in [
            PolicyConfig::MinMin,
            PolicyConfig::Annealing(SaConfig::default()),
        ] {
            let mut s = SchedulerSystem::new(
                GridResource::new("S1", Platform::sgi_origin2000(), 1),
                cfg,
                Arc::new(CachedEngine::new()),
                RngStream::root(92),
            );
            let a = app(vec![10.0]);
            let mut started = Vec::new();
            for id in 1..=3 {
                started.extend(s.submit(mk_task(id, &a, 1000), SimTime::ZERO).unwrap());
            }
            let extra = s.cancel(TaskId(2), SimTime::ZERO).expect("task 2 pending");
            started.extend(extra);
            drain(&mut s, started);
            let ids: Vec<u64> = s.completed().iter().map(|c| c.task.id.0).collect();
            assert!(ids.contains(&1) && ids.contains(&3) && !ids.contains(&2));

            // A fresh system crashes cleanly and recovers.
            let mut s2 = SchedulerSystem::new(
                GridResource::new("S1", Platform::sgi_origin2000(), 1),
                PolicyConfig::Sufferage,
                Arc::new(CachedEngine::new()),
                RngStream::root(93),
            );
            for id in 1..=3 {
                s2.submit(mk_task(id, &a, 1000), SimTime::ZERO).unwrap();
            }
            let lost = s2.crash(SimTime::from_secs(4));
            assert_eq!(lost.len(), 3);
            let started = s2
                .submit(mk_task(4, &a, 1000), SimTime::from_secs(4))
                .unwrap();
            drain(&mut s2, started);
            assert_eq!(s2.completed().len(), 1);
        }
    }

    #[test]
    fn exact_noise_matches_noiseless_run() {
        use agentgrid_pace::NoiseModel;
        let run = |with_noise: bool| {
            let mut s = ga_system(4, 33);
            if with_noise {
                s.set_noise(NoiseModel::Exact);
            }
            let a = app(vec![12.0, 8.0, 6.0, 5.0]);
            let mut started = Vec::new();
            for id in 1..=6 {
                started.extend(s.submit(mk_task(id, &a, 600), SimTime::ZERO).unwrap());
            }
            drain(&mut s, started);
            s.completed()
                .iter()
                .map(|c| (c.task.id.0, c.start, c.completion))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use crate::batch::BatchConfig;
    use agentgrid_pace::{AppId, ApplicationModel, ModelCurve, Platform, TabulatedModel};

    fn app(times: Vec<f64>) -> Arc<ApplicationModel> {
        use std::sync::atomic::{AtomicU32, Ordering};
        static NEXT: AtomicU32 = AtomicU32::new(1000);
        Arc::new(
            ApplicationModel::new(
                AppId(NEXT.fetch_add(1, Ordering::Relaxed)),
                "b",
                ModelCurve::Tabulated(TabulatedModel::new(times).unwrap()),
                (1.0, 1000.0),
            )
            .unwrap(),
        )
    }

    fn mk_task(id: u64, app: &Arc<ApplicationModel>, deadline_s: u64) -> Task {
        Task::new(
            TaskId(id),
            app.clone(),
            SimTime::ZERO,
            SimTime::from_secs(deadline_s),
            ExecEnv::Test,
        )
    }

    fn batch_system(nproc: usize, backfill: bool) -> SchedulerSystem {
        SchedulerSystem::new(
            GridResource::new("B1", Platform::sgi_origin2000(), nproc),
            PolicyConfig::Batch(BatchConfig { backfill }),
            Arc::new(CachedEngine::new()),
            RngStream::root(61),
        )
    }

    fn drain(system: &mut SchedulerSystem, mut started: Vec<StartedTask>) {
        while !started.is_empty() {
            started.sort_by_key(|s| (s.completion, s.id.0));
            let next = started.remove(0);
            started.extend(system.on_task_complete(next.id, next.completion));
        }
    }

    #[test]
    fn batch_runs_tasks_at_the_user_requested_width() {
        let mut s = batch_system(4, true);
        // Optimum is 4 nodes (monotone speedup).
        let a = app(vec![40.0, 20.0, 14.0, 10.0]);
        let mut started = Vec::new();
        for id in 1..=3 {
            started.extend(s.submit(mk_task(id, &a, 1000), SimTime::ZERO).unwrap());
        }
        drain(&mut s, started);
        assert_eq!(s.completed().len(), 3);
        for c in s.completed() {
            assert_eq!(c.mask.count(), 4, "batch honours the requested width");
            let dur = c.completion.saturating_since(c.start).as_secs_f64();
            assert!((dur - 10.0).abs() < 1e-6);
        }
        // Strictly sequential: 3 × 10 s.
        let last = s.completed().iter().map(|c| c.completion).max().unwrap();
        assert_eq!(last, SimTime::from_secs(30));
    }

    #[test]
    fn batch_backfill_beats_pure_fcfs_on_makespan() {
        // Wide job, then a narrow long job, then narrow short jobs: EASY
        // lets the short jobs fill the wide job's shadow.
        let wide = app(vec![100.0, 52.0, 36.0, 25.0]); // optimum 4 nodes
        let narrow = app(vec![8.0, 8.0, 8.0, 8.0]); // optimum 1 node
        let run = |backfill: bool| {
            let mut s = batch_system(4, backfill);
            let mut started = Vec::new();
            started.extend(s.submit(mk_task(1, &wide, 10_000), SimTime::ZERO).unwrap());
            started.extend(s.submit(mk_task(2, &wide, 10_000), SimTime::ZERO).unwrap());
            for id in 3..=6 {
                started.extend(
                    s.submit(mk_task(id, &narrow, 10_000), SimTime::ZERO)
                        .unwrap(),
                );
            }
            drain(&mut s, started);
            assert_eq!(s.completed().len(), 6);
            s.completed().iter().map(|c| c.completion).max().unwrap()
        };
        let fcfs = run(false);
        let easy = run(true);
        assert!(easy <= fcfs, "backfill must not worsen the makespan");
    }

    #[test]
    fn batch_freetime_reflects_the_queue() {
        let mut s = batch_system(2, true);
        let a = app(vec![10.0, 10.0]); // optimum 1 node
        s.submit(mk_task(1, &a, 1000), SimTime::ZERO).unwrap();
        s.submit(mk_task(2, &a, 1000), SimTime::ZERO).unwrap();
        s.submit(mk_task(3, &a, 1000), SimTime::ZERO).unwrap();
        // Two run now, one queued: freetime = 20 s.
        assert_eq!(s.freetime(SimTime::ZERO), SimTime::from_secs(20));
    }

    #[test]
    fn batch_cancel_removes_queued_jobs() {
        let mut s = batch_system(1, false);
        let a = app(vec![10.0]);
        let mut started = Vec::new();
        for id in 1..=3 {
            started.extend(s.submit(mk_task(id, &a, 1000), SimTime::ZERO).unwrap());
        }
        assert!(s.cancel(TaskId(2), SimTime::ZERO).is_some());
        assert!(s.cancel(TaskId(1), SimTime::ZERO).is_none(), "running");
        drain(&mut s, started);
        let ids: Vec<u64> = s.completed().iter().map(|c| c.task.id.0).collect();
        assert_eq!(ids.len(), 2);
        assert!(!ids.contains(&2));
    }
}
