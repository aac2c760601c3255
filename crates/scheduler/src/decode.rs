//! Decoding a solution string into a concrete schedule (Fig. 2's Gantt
//! chart) and its raw cost ingredients.
//!
//! Decoding walks the ordering part: each task starts at the instant all
//! nodes in its mask are simultaneously free ("a start time τⱼ at which
//! the allocated nodes all begin to execute the task in unison", eq. 6),
//! its execution time comes from the PACE engine, and node free times
//! advance. The decoder also accumulates the idle pockets each placement
//! opens up, with their start offsets, so the cost function can weight
//! early idle time more heavily than late idle time.

use crate::cost::{CostWeights, ScheduleCost};
use crate::gantt::ScheduleLedger;
use crate::solution::Solution;
use crate::task::Task;
use agentgrid_cluster::{GridResource, NodeMask};
use agentgrid_pace::{CachedEngine, ResourceModel};
use agentgrid_sim::{SimDuration, SimTime};

/// A planning snapshot of a grid resource: what the scheduler may use and
/// when each node becomes free, with the clock frozen at `now`.
#[derive(Clone, Debug)]
pub struct ResourceView {
    /// The PACE resource model (platform + total node count).
    pub model: ResourceModel,
    /// The planning instant; no task may start before it.
    pub now: SimTime,
    /// Per-node next-free instants, already clamped to `now`.
    pub node_free: Vec<SimTime>,
    /// Nodes the monitor currently reports available.
    pub available: NodeMask,
}

impl ResourceView {
    /// Snapshot `resource` at `now`. Returns `None` when no node is
    /// available (nothing can be planned).
    pub fn snapshot(resource: &GridResource, now: SimTime) -> Option<ResourceView> {
        let available = resource.available_mask();
        if available.is_empty() {
            return None;
        }
        let node_free = (0..resource.nproc())
            .map(|i| resource.node_free_at(i).max(now))
            .collect();
        Some(ResourceView {
            model: resource.model().clone(),
            now,
            node_free,
            available,
        })
    }

    /// The lowest-numbered available node (mask-repair fallback).
    pub fn fallback_node(&self) -> usize {
        self.available
            .iter()
            .next()
            .expect("view has available nodes")
    }

    /// The `k` available nodes with the earliest free times.
    pub fn earliest_k(&self, k: usize) -> NodeMask {
        let mut nodes: Vec<usize> = self.available.iter().collect();
        if k < nodes.len() {
            if k == 0 {
                nodes.clear();
            } else {
                // Partition the k earliest to the front instead of sorting
                // all of them; the (free time, index) key is a total order,
                // so the selected *set* — and therefore the mask, which is
                // order-insensitive — is identical to the full sort's,
                // ties resolving to lower node indices.
                nodes.select_nth_unstable_by_key(k - 1, |i| (self.node_free[*i], *i));
                nodes.truncate(k);
            }
        }
        NodeMask::from_indices(nodes)
    }

    /// Number of available nodes.
    pub fn available_count(&self) -> usize {
        self.available.count()
    }
}

/// One task's placement in a decoded schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Placement {
    /// Index of the task in the optimisation set.
    pub task: usize,
    /// The (repaired) node set actually used.
    pub mask: NodeMask,
    /// Start instant τⱼ.
    pub start: SimTime,
    /// Completion instant ηⱼ.
    pub completion: SimTime,
}

/// A fully decoded schedule with its cost ingredients.
#[derive(Clone, Debug)]
pub struct DecodedSchedule {
    /// Placements in execution order.
    pub placements: Vec<Placement>,
    /// Makespan ω as an absolute instant (latest completion; `now` if the
    /// schedule is empty).
    pub makespan: SimTime,
    /// ω relative to the planning instant, in seconds.
    pub makespan_rel_s: f64,
    /// Idle pockets as `(offset_s from now, length_s)` pairs.
    pub idle_pockets: Vec<(f64, f64)>,
    /// Total contract penalty θ: Σ max(0, ηⱼ − δⱼ) in seconds.
    pub lateness_s: f64,
    /// Number of tasks missing their deadline under this schedule.
    pub missed_deadlines: usize,
    /// Total allocated node-time α: Σ |mask| · exec_s in node-seconds.
    /// Nodes that join a mask without shortening the run inflate this
    /// without improving anything else, which is how the cost function
    /// tells a wasteful wide allocation from a genuinely parallel one.
    pub alloc_node_s: f64,
}

impl DecodedSchedule {
    /// Unweighted total idle seconds (node-seconds of gap).
    pub fn total_idle_s(&self) -> f64 {
        self.idle_pockets.iter().map(|(_, len)| len).sum()
    }

    /// The placement of task index `task`, if scheduled.
    pub fn placement_of(&self, task: usize) -> Option<&Placement> {
        self.placements.iter().find(|p| p.task == task)
    }
}

/// Reusable decode buffers. The GA evaluates population × generations
/// solutions per evolve call; decoding into a scratch instead of fresh
/// `Vec`s eliminates three heap allocations per evaluation (node-free
/// times, placements, idle pockets) while producing bit-identical
/// results — [`decode`] itself is a thin wrapper over [`decode_into`].
#[derive(Clone, Debug, Default)]
pub struct DecodeScratch {
    /// Working copy of the per-node free times.
    node_free: Vec<SimTime>,
    /// Placements in execution order (output).
    pub placements: Vec<Placement>,
    /// Idle pockets as `(offset_s from now, length_s)` pairs (output).
    pub idle_pockets: Vec<(f64, f64)>,
    /// Decodes served by already-warm buffers (telemetry).
    reuses: u64,
}

impl DecodeScratch {
    /// Decodes that recycled previously allocated buffers.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Reset the buffers for one decode against `view`.
    fn begin(&mut self, view: &ResourceView) {
        if !self.node_free.is_empty() {
            self.reuses += 1;
        }
        self.node_free.clear();
        self.node_free.extend_from_slice(&view.node_free);
        self.placements.clear();
        self.idle_pockets.clear();
    }
}

/// The scalar outputs of one scratch decode; the vector outputs
/// (placements, idle pockets) stay in the [`DecodeScratch`].
#[derive(Clone, Copy, Debug)]
pub struct DecodeSummary {
    /// Makespan ω as an absolute instant.
    pub makespan: SimTime,
    /// ω relative to the planning instant, in seconds.
    pub makespan_rel_s: f64,
    /// Total contract penalty θ in seconds.
    pub lateness_s: f64,
    /// Tasks missing their deadline.
    pub missed_deadlines: usize,
    /// Total allocated node-time α in node-seconds.
    pub alloc_node_s: f64,
}

/// Decode `solution` for `tasks` against the resource snapshot `view`,
/// querying predictions through `engine`.
///
/// Masks are intersected with the available set and repaired to non-empty,
/// so any legitimate string decodes to a feasible schedule; the decoder
/// never double-books a node.
pub fn decode(
    view: &ResourceView,
    tasks: &[Task],
    solution: &Solution,
    engine: &CachedEngine,
) -> DecodedSchedule {
    let mut scratch = DecodeScratch::default();
    let summary = decode_into(view, tasks, solution, engine, &mut scratch);
    DecodedSchedule {
        makespan: summary.makespan,
        makespan_rel_s: summary.makespan_rel_s,
        idle_pockets: scratch.idle_pockets,
        lateness_s: summary.lateness_s,
        missed_deadlines: summary.missed_deadlines,
        alloc_node_s: summary.alloc_node_s,
        placements: scratch.placements,
    }
}

/// [`decode`] into reusable buffers: placements and idle pockets land in
/// `scratch`, the scalars come back as a [`DecodeSummary`]. This is the
/// single decode implementation — the allocating form delegates here —
/// so scratch reuse cannot change a result bit.
pub fn decode_into(
    view: &ResourceView,
    tasks: &[Task],
    solution: &Solution,
    engine: &CachedEngine,
    scratch: &mut DecodeScratch,
) -> DecodeSummary {
    debug_assert_eq!(solution.len(), tasks.len());
    scratch.begin(view);
    let node_free = &mut scratch.node_free;
    scratch.placements.reserve(solution.len());
    let mut makespan = view.now;
    let mut lateness_s = 0.0;
    let mut missed = 0usize;
    let mut alloc_node_s = 0.0;

    for (p, &task_idx) in solution.order.iter().enumerate() {
        let task = &tasks[task_idx];
        let mask = solution.mapping[p]
            .and(view.available)
            .ensure_nonempty(view.fallback_node());
        // Start when every allocated node is free.
        let start = mask
            .iter()
            .map(|i| node_free[i])
            .fold(view.now, SimTime::max);
        let exec_s = engine.evaluate(&task.app, &view.model, mask.count());
        let completion = start + SimDuration::from_secs_f64(exec_s);
        alloc_node_s += mask.count() as f64 * exec_s;
        for i in mask.iter() {
            let free = node_free[i];
            // Integer compare before any float conversion: `gap > 0`
            // iff `free < start` in ticks, and most node visits open no
            // pocket, so the two tick→seconds divisions only run for
            // the visits that do. Surviving pockets are bit-identical.
            if free < start {
                let gap = start.saturating_since(free).as_secs_f64();
                let offset = free.saturating_since(view.now).as_secs_f64();
                scratch.idle_pockets.push((offset, gap));
            }
            node_free[i] = completion;
        }
        if completion > task.deadline {
            lateness_s += completion.saturating_since(task.deadline).as_secs_f64();
            missed += 1;
        }
        makespan = makespan.max(completion);
        scratch.placements.push(Placement {
            task: task_idx,
            mask,
            start,
            completion,
        });
    }

    DecodeSummary {
        makespan,
        makespan_rel_s: makespan.saturating_since(view.now).as_secs_f64(),
        lateness_s,
        missed_deadlines: missed,
        alloc_node_s,
    }
}

/// Structure-of-arrays evaluation context, built once per evolve call:
/// every PACE prediction the decoder can need, pre-queried into a flat
/// `tasks × nproc` seconds table, plus the deadline column. Inside the GA
/// inner loop this replaces an `Arc` deref + atomic fast-table load per
/// placement with a plain indexed read from a contiguous row, and it is
/// what lets the delta evaluator run without an engine handle at all.
/// The table holds the engine's own outputs verbatim, so context-based
/// decoding is bit-identical to engine-based decoding.
#[derive(Clone, Debug)]
pub struct EvalContext {
    nproc: usize,
    /// `exec_s[t * nproc + (k - 1)]` = predicted seconds for task `t` on
    /// `k` nodes, exactly as `engine.evaluate` returns it.
    exec_s: Vec<f64>,
    /// Per-task deadlines, in task-index order.
    deadlines: Vec<SimTime>,
}

impl EvalContext {
    /// Pre-query `engine` for every `(task, nproc)` pair of this view.
    pub fn build(view: &ResourceView, tasks: &[Task], engine: &CachedEngine) -> EvalContext {
        let nproc = view.model.nproc.max(1);
        let mut exec_s = Vec::with_capacity(tasks.len() * nproc);
        for task in tasks {
            for k in 1..=nproc {
                exec_s.push(engine.evaluate(&task.app, &view.model, k));
            }
        }
        EvalContext {
            nproc,
            exec_s,
            deadlines: tasks.iter().map(|t| t.deadline).collect(),
        }
    }

    /// Number of tasks this context covers.
    pub fn task_count(&self) -> usize {
        self.deadlines.len()
    }

    /// Predicted seconds for `task` on `k` nodes (`1 ≤ k ≤ nproc`).
    #[inline]
    pub fn exec_s(&self, task: usize, k: usize) -> f64 {
        self.exec_s[task * self.nproc + (k - 1)]
    }

    /// Deadline of `task`.
    #[inline]
    pub fn deadline(&self, task: usize) -> SimTime {
        self.deadlines[task]
    }
}

/// The running scalars of a decode, frozen *before* a given position.
/// `DecodeMemo` stores one of these per position (plus one final state),
/// so a delta evaluation can resume the fold mid-string with exactly the
/// accumulator bits the full decode would hold there.
#[derive(Clone, Copy, Debug)]
struct PrefixState {
    makespan: SimTime,
    lateness_s: f64,
    missed: usize,
    alloc_node_s: f64,
    /// Pockets recorded so far — a prefix length into the SoA columns.
    pockets: usize,
}

/// Cached evaluation state of one GA individual: the placement ledger,
/// per-position prefix accumulators, idle pockets in SoA layout, and the
/// finished summary/cost. When an offspring shares a prefix with its
/// parent (point mutation, single-cut crossover), [`evaluate_delta`]
/// clones the shared prefix out of the parent's memo and decodes only the
/// suffix — the incremental repair path of the GA hot loop.
#[derive(Clone, Debug, Default)]
pub struct DecodeMemo {
    valid: bool,
    ledger: ScheduleLedger,
    /// `prefix[p]` = accumulator state before position `p`; length
    /// `m + 1`, with `prefix[m]` the final state.
    prefix: Vec<PrefixState>,
    /// Idle-pocket start offsets (seconds from `now`), SoA column.
    pocket_offsets: Vec<f64>,
    /// Idle-pocket lengths (seconds), SoA column.
    pocket_lengths: Vec<f64>,
    summary: Option<DecodeSummary>,
    cost: f64,
    /// Positions actually decoded (suffix length) — telemetry.
    decoded_positions: u64,
}

impl DecodeMemo {
    /// Whether this memo holds a finished evaluation.
    pub fn is_valid(&self) -> bool {
        self.valid
    }

    /// The combined cost of the memoised evaluation.
    pub fn cost(&self) -> f64 {
        debug_assert!(self.valid);
        self.cost
    }

    /// The memoised decode summary.
    pub fn summary(&self) -> Option<DecodeSummary> {
        self.summary
    }

    /// Positions decoded by the evaluation that produced this memo
    /// (`0` when the cost was copied from an identical parent).
    pub fn decoded_positions(&self) -> u64 {
        self.decoded_positions
    }

    /// Idle pockets as SoA columns `(offsets, lengths)`.
    pub fn pockets(&self) -> (&[f64], &[f64]) {
        (&self.pocket_offsets, &self.pocket_lengths)
    }

    /// Drop the memoised state (e.g. when the view it was built against
    /// has gone stale).
    pub fn invalidate(&mut self) {
        self.valid = false;
    }

    /// Adopt the shared prefix `[0, upto)` of `parent`, truncating any
    /// leftover suffix from this memo's previous life.
    fn adopt_prefix(&mut self, parent: &DecodeMemo, upto: usize) {
        self.ledger.copy_prefix(&parent.ledger, upto);
        self.prefix.clear();
        self.prefix.extend_from_slice(&parent.prefix[..=upto]);
        let pockets = parent.prefix[upto].pockets;
        self.pocket_offsets.clear();
        self.pocket_offsets
            .extend_from_slice(&parent.pocket_offsets[..pockets]);
        self.pocket_lengths.clear();
        self.pocket_lengths
            .extend_from_slice(&parent.pocket_lengths[..pockets]);
    }

    /// Start a from-scratch evaluation (no usable parent prefix).
    fn begin_fresh(&mut self, view: &ResourceView) {
        self.ledger.clear();
        self.prefix.clear();
        self.prefix.push(PrefixState {
            makespan: view.now,
            lateness_s: 0.0,
            missed: 0,
            alloc_node_s: 0.0,
            pockets: 0,
        });
        self.pocket_offsets.clear();
        self.pocket_lengths.clear();
    }
}

/// Length of the longest common prefix of two solutions: the first
/// position where either the ordering or the mapping differs. The GA's
/// operators (order swap, per-bit mask flips, one-cut splices) perturb a
/// handful of positions, so offspring typically share a long prefix with
/// one parent — everything before the divergence decodes identically and
/// can be resumed from the parent's memo.
fn divergence(a: &Solution, b: &Solution) -> usize {
    let m = a.len().min(b.len());
    for p in 0..m {
        if a.order[p] != b.order[p] || a.mapping[p] != b.mapping[p] {
            return p;
        }
    }
    m
}

/// Evaluate `solution` against `view`, resuming from `parent`'s memo when
/// a shared prefix allows it, and leave the full evaluation state in
/// `memo`. Returns the combined cost.
///
/// Three paths, cheapest first:
/// * parent identical → copy the memo, zero decoding;
/// * shared prefix of length `d` → adopt the parent's ledger/prefix up to
///   `d`, replay the ledger into the node-free table, decode `[d, m)`;
/// * no parent (or stale memo) → full decode from position 0.
///
/// All three run the same per-position float operations in the same order
/// as [`decode_into`], and the node-free table reconstructed by ledger
/// replay is exact (integer `SimTime` stores), so the resulting summary
/// and cost are bit-identical to a full re-decode — asserted on every
/// delta evaluation in debug builds, and by the determinism suite and
/// `agentgrid-verify` oracles in release.
pub fn evaluate_delta(
    view: &ResourceView,
    ctx: &EvalContext,
    solution: &Solution,
    parent: Option<(&Solution, &DecodeMemo)>,
    memo: &mut DecodeMemo,
    scratch: &mut DecodeScratch,
    weights: &CostWeights,
) -> f64 {
    let m = solution.len();
    debug_assert_eq!(m, ctx.task_count(), "context built for this task set");
    let d = match parent {
        Some((psol, pmemo)) if pmemo.valid && psol.len() == m => divergence(solution, psol),
        _ => 0,
    };

    if d == m {
        if let Some((_, pmemo)) = parent {
            // Identical to the parent (elite copy, no-op offspring):
            // the whole evaluation is memoised. It is copied into the
            // memo's own buffers, so no allocation once they have grown.
            if m > 0 {
                memo.adopt_prefix(pmemo, m);
                memo.summary = pmemo.summary;
                memo.cost = pmemo.cost;
                memo.valid = true;
                memo.decoded_positions = 0;
                return memo.cost;
            }
        }
    }

    if d == 0 {
        memo.begin_fresh(view);
        scratch.begin(view);
    } else {
        let (_, pmemo) = parent.expect("divergence > 0 implies a parent");
        memo.adopt_prefix(pmemo, d);
        // Rebuild the node-free table as of position `d` by replaying the
        // shared prefix over the view's snapshot.
        pmemo
            .ledger
            .replay_into(d, &view.node_free, &mut scratch.node_free);
    }

    let node_free = &mut scratch.node_free;
    let mut state = *memo.prefix.last().expect("begin pushed the initial state");
    for p in d..m {
        let task_idx = solution.order[p];
        let mask = solution.mapping[p]
            .and(view.available)
            .ensure_nonempty(view.fallback_node());
        let start = mask
            .iter()
            .map(|i| node_free[i])
            .fold(view.now, SimTime::max);
        let exec_s = ctx.exec_s(task_idx, mask.count());
        let completion = start + SimDuration::from_secs_f64(exec_s);
        state.alloc_node_s += mask.count() as f64 * exec_s;
        for i in mask.iter() {
            let free = node_free[i];
            if free < start {
                let gap = start.saturating_since(free).as_secs_f64();
                let offset = free.saturating_since(view.now).as_secs_f64();
                memo.pocket_offsets.push(offset);
                memo.pocket_lengths.push(gap);
                state.pockets += 1;
            }
            node_free[i] = completion;
        }
        let deadline = ctx.deadline(task_idx);
        if completion > deadline {
            state.lateness_s += completion.saturating_since(deadline).as_secs_f64();
            state.missed += 1;
        }
        state.makespan = state.makespan.max(completion);
        memo.ledger.push(mask, completion);
        memo.prefix.push(state);
    }

    let summary = DecodeSummary {
        makespan: state.makespan,
        makespan_rel_s: state.makespan.saturating_since(view.now).as_secs_f64(),
        lateness_s: state.lateness_s,
        missed_deadlines: state.missed,
        alloc_node_s: state.alloc_node_s,
    };
    let cost = ScheduleCost::of_parts_soa(
        summary.makespan_rel_s,
        &memo.pocket_offsets,
        &memo.pocket_lengths,
        summary.lateness_s,
        summary.alloc_node_s,
        weights,
    )
    .combined(weights);
    memo.summary = Some(summary);
    memo.cost = cost;
    memo.valid = true;
    memo.decoded_positions = (m - d) as u64;

    #[cfg(debug_assertions)]
    if d > 0 {
        // Every delta resume cross-checks against a from-scratch decode,
        // so the whole test suite doubles as a bit-equality oracle. The
        // oracle's buffers are reused per thread, so debug builds
        // allocate no more than release builds do.
        thread_local! {
            static ORACLE: std::cell::RefCell<(DecodeMemo, DecodeScratch)> =
                std::cell::RefCell::default();
        }
        ORACLE.with_borrow_mut(|(fresh, fresh_scratch)| {
            let fresh_cost =
                evaluate_delta(view, ctx, solution, None, fresh, fresh_scratch, weights);
            debug_assert_eq!(cost.to_bits(), fresh_cost.to_bits(), "delta cost drifted");
            let fs = fresh.summary.expect("fresh eval summarised");
            debug_assert_eq!(summary.makespan, fs.makespan);
            debug_assert_eq!(summary.lateness_s.to_bits(), fs.lateness_s.to_bits());
            debug_assert_eq!(summary.alloc_node_s.to_bits(), fs.alloc_node_s.to_bits());
            debug_assert_eq!(memo.pocket_offsets, fresh.pocket_offsets);
            debug_assert_eq!(memo.pocket_lengths, fresh.pocket_lengths);
        });
    }

    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{Task, TaskId};
    use agentgrid_cluster::ExecEnv;
    use agentgrid_pace::{AppId, ApplicationModel, ModelCurve, Platform, TabulatedModel};
    use std::sync::Arc;

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

    #[test]
    fn snapshot_clamps_free_times_to_now() {
        let mut r = GridResource::new("S1", Platform::sgi_origin2000(), 2);
        r.commit(1, NodeMask::single(0), SimTime::ZERO, SimTime::from_secs(5));
        let v = ResourceView::snapshot(&r, SimTime::from_secs(10)).unwrap();
        assert_eq!(v.node_free[0], SimTime::from_secs(10));
        assert_eq!(v.node_free[1], SimTime::from_secs(10));
    }

    #[test]
    fn snapshot_none_when_all_down() {
        let mut r = GridResource::new("S1", Platform::sgi_origin2000(), 2);
        r.set_node_available(0, false);
        r.set_node_available(1, false);
        assert!(ResourceView::snapshot(&r, SimTime::ZERO).is_none());
    }

    #[test]
    fn sequential_tasks_on_shared_node_queue_up() {
        let engine = CachedEngine::new();
        let a = app(vec![10.0]);
        let tasks = vec![task(1, a.clone(), 100), task(2, a, 100)];
        let sol = Solution {
            order: vec![0, 1],
            mapping: vec![NodeMask::single(0), NodeMask::single(0)],
        };
        let d = decode(&view(1), &tasks, &sol, &engine);
        assert_eq!(d.placements[0].start, SimTime::ZERO);
        assert_eq!(d.placements[0].completion, SimTime::from_secs(10));
        assert_eq!(d.placements[1].start, SimTime::from_secs(10));
        assert_eq!(d.makespan, SimTime::from_secs(20));
        assert!((d.makespan_rel_s - 20.0).abs() < 1e-9);
        assert_eq!(d.total_idle_s(), 0.0);
        assert_eq!(d.missed_deadlines, 0);
        assert!((d.alloc_node_s - 20.0).abs() < 1e-9);
    }

    #[test]
    fn wider_masks_allocate_more_node_time_without_speedup() {
        let engine = CachedEngine::new();
        // Flat curve: extra nodes buy nothing but still count as allocated.
        let a = app(vec![10.0, 10.0]);
        let tasks = vec![task(1, a, 100)];
        let narrow = decode(
            &view(2),
            &tasks,
            &Solution {
                order: vec![0],
                mapping: vec![NodeMask::single(0)],
            },
            &engine,
        );
        let wide = decode(
            &view(2),
            &tasks,
            &Solution {
                order: vec![0],
                mapping: vec![NodeMask::from_indices([0, 1])],
            },
            &engine,
        );
        assert_eq!(narrow.makespan, wide.makespan);
        assert!((narrow.alloc_node_s - 10.0).abs() < 1e-9);
        assert!((wide.alloc_node_s - 20.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_tasks_on_disjoint_nodes_overlap() {
        let engine = CachedEngine::new();
        let a = app(vec![10.0]);
        let tasks = vec![task(1, a.clone(), 100), task(2, a, 100)];
        let sol = Solution {
            order: vec![0, 1],
            mapping: vec![NodeMask::single(0), NodeMask::single(1)],
        };
        let d = decode(&view(2), &tasks, &sol, &engine);
        assert_eq!(d.placements[1].start, SimTime::ZERO);
        assert_eq!(d.makespan, SimTime::from_secs(10));
    }

    #[test]
    fn multi_node_task_waits_for_all_its_nodes_and_opens_idle_pocket() {
        let engine = CachedEngine::new();
        let slow = app(vec![10.0, 10.0]);
        let quick = app(vec![4.0, 4.0]);
        // Task 0 holds node 0 for 10 s; task 1 runs 4 s on node 1; task 2
        // needs both nodes, so node 1 idles from t=4 to t=10.
        let tasks = vec![
            task(1, slow.clone(), 100),
            task(2, quick, 100),
            task(3, slow, 100),
        ];
        let sol = Solution {
            order: vec![0, 1, 2],
            mapping: vec![
                NodeMask::single(0),
                NodeMask::single(1),
                NodeMask::from_indices([0, 1]),
            ],
        };
        let d = decode(&view(2), &tasks, &sol, &engine);
        assert_eq!(d.placements[2].start, SimTime::from_secs(10));
        assert_eq!(d.idle_pockets.len(), 1);
        let (offset, len) = d.idle_pockets[0];
        assert!((offset - 4.0).abs() < 1e-9);
        assert!((len - 6.0).abs() < 1e-9);
    }

    #[test]
    fn lateness_accumulates_only_past_deadline() {
        let engine = CachedEngine::new();
        let a = app(vec![10.0]);
        let tasks = vec![task(1, a.clone(), 25), task(2, a, 12)];
        let sol = Solution {
            order: vec![0, 1],
            mapping: vec![NodeMask::single(0), NodeMask::single(0)],
        };
        let d = decode(&view(1), &tasks, &sol, &engine);
        // Task 0 completes at 10 (deadline 25, fine); task 1 at 20
        // (deadline 12, 8 s late).
        assert_eq!(d.missed_deadlines, 1);
        assert!((d.lateness_s - 8.0).abs() < 1e-9);
    }

    #[test]
    fn unavailable_nodes_are_stripped_from_masks() {
        let engine = CachedEngine::new();
        let mut r = GridResource::new("S1", Platform::sgi_origin2000(), 2);
        r.set_node_available(1, false);
        let v = ResourceView::snapshot(&r, SimTime::ZERO).unwrap();
        let a = app(vec![10.0, 6.0]);
        let tasks = vec![task(1, a, 100)];
        let sol = Solution {
            order: vec![0],
            mapping: vec![NodeMask::from_indices([0, 1])],
        };
        let d = decode(&v, &tasks, &sol, &engine);
        assert_eq!(d.placements[0].mask, NodeMask::single(0));
        // One node → 10 s, not the 2-node 6 s.
        assert_eq!(d.placements[0].completion, SimTime::from_secs(10));
    }

    #[test]
    fn empty_solution_decodes_to_empty_schedule() {
        let engine = CachedEngine::new();
        let d = decode(
            &view(2),
            &[],
            &Solution {
                order: vec![],
                mapping: vec![],
            },
            &engine,
        );
        assert_eq!(d.makespan, SimTime::ZERO);
        assert_eq!(d.makespan_rel_s, 0.0);
        assert!(d.placements.is_empty());
    }

    #[test]
    fn decode_never_double_books() {
        // Property-style check with a fixed stress solution.
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let engine = CachedEngine::new();
        let a = app(vec![8.0, 5.0, 4.0, 3.0]);
        let tasks: Vec<Task> = (0..12).map(|i| task(i, a.clone(), 40)).collect();
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..50 {
            let sol = Solution::random(12, 4, &mut rng);
            let d = decode(&view(4), &tasks, &sol, &engine);
            // Rebuild per-node busy intervals and assert no overlap.
            let mut per_node: Vec<Vec<(SimTime, SimTime)>> = vec![vec![]; 4];
            for p in &d.placements {
                for i in p.mask.iter() {
                    per_node[i].push((p.start, p.completion));
                }
            }
            for intervals in &mut per_node {
                intervals.sort();
                for w in intervals.windows(2) {
                    assert!(w[0].1 <= w[1].0, "node double-booked");
                }
            }
        }
    }

    #[test]
    fn earliest_k_breaks_free_time_ties_by_lower_index() {
        // Nodes 0, 2, 3 all free at the same instant; equal free times
        // must resolve to the lowest indices, exactly as the former full
        // sort by (free time, index) did.
        let mut r = GridResource::new("S1", Platform::sgi_origin2000(), 4);
        r.commit(1, NodeMask::single(1), SimTime::ZERO, SimTime::from_secs(9));
        let v = ResourceView::snapshot(&r, SimTime::ZERO).unwrap();
        assert_eq!(v.earliest_k(0), NodeMask::from_indices(std::iter::empty()));
        assert_eq!(v.earliest_k(1), NodeMask::single(0));
        assert_eq!(v.earliest_k(2), NodeMask::from_indices([0, 2]));
        assert_eq!(v.earliest_k(3), NodeMask::from_indices([0, 2, 3]));
        // k at or past the available count returns every available node.
        assert_eq!(v.earliest_k(4), NodeMask::from_indices([0, 1, 2, 3]));
        assert_eq!(v.earliest_k(99), NodeMask::from_indices([0, 1, 2, 3]));
    }

    #[test]
    fn scratch_decode_matches_fresh_decode() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let engine = CachedEngine::new();
        let a = app(vec![8.0, 5.0, 4.0, 3.0]);
        let tasks: Vec<Task> = (0..10).map(|i| task(i, a.clone(), 40)).collect();
        let v = view(4);
        let mut rng = SmallRng::seed_from_u64(21);
        let mut scratch = DecodeScratch::default();
        for _ in 0..25 {
            let sol = Solution::random(10, 4, &mut rng);
            let fresh = decode(&v, &tasks, &sol, &engine);
            let summary = decode_into(&v, &tasks, &sol, &engine, &mut scratch);
            assert_eq!(scratch.placements, fresh.placements);
            assert_eq!(scratch.idle_pockets, fresh.idle_pockets);
            assert_eq!(summary.makespan, fresh.makespan);
            // Bit-level equality: the scratch path must run the exact
            // same float operations as the allocating path.
            assert_eq!(
                summary.makespan_rel_s.to_bits(),
                fresh.makespan_rel_s.to_bits()
            );
            assert_eq!(summary.lateness_s.to_bits(), fresh.lateness_s.to_bits());
            assert_eq!(summary.alloc_node_s.to_bits(), fresh.alloc_node_s.to_bits());
            assert_eq!(summary.missed_deadlines, fresh.missed_deadlines);
        }
        assert_eq!(
            scratch.reuses(),
            24,
            "every decode after the first recycles"
        );
    }

    #[test]
    fn context_backed_eval_matches_engine_backed_decode() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let engine = CachedEngine::new();
        let a = app(vec![8.0, 5.0, 4.0, 3.0]);
        let tasks: Vec<Task> = (0..10).map(|i| task(i, a.clone(), 40)).collect();
        let v = view(4);
        let ctx = EvalContext::build(&v, &tasks, &engine);
        let w = crate::cost::CostWeights::default();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut memo = DecodeMemo::default();
        let mut scratch = DecodeScratch::default();
        let mut full_scratch = DecodeScratch::default();
        for _ in 0..25 {
            let sol = Solution::random(10, 4, &mut rng);
            let cost = evaluate_delta(&v, &ctx, &sol, None, &mut memo, &mut scratch, &w);
            let summary = decode_into(&v, &tasks, &sol, &engine, &mut full_scratch);
            let full_cost = crate::cost::ScheduleCost::of_parts(
                summary.makespan_rel_s,
                &full_scratch.idle_pockets,
                summary.lateness_s,
                summary.alloc_node_s,
                &w,
            )
            .combined(&w);
            assert_eq!(cost.to_bits(), full_cost.to_bits());
            let ms = memo.summary().unwrap();
            assert_eq!(ms.makespan, summary.makespan);
            assert_eq!(ms.alloc_node_s.to_bits(), summary.alloc_node_s.to_bits());
            assert_eq!(ms.lateness_s.to_bits(), summary.lateness_s.to_bits());
            assert_eq!(ms.missed_deadlines, summary.missed_deadlines);
            let (offs, lens) = memo.pockets();
            let pairs: Vec<(f64, f64)> = offs.iter().copied().zip(lens.iter().copied()).collect();
            assert_eq!(pairs, full_scratch.idle_pockets);
        }
    }

    #[test]
    fn delta_resume_matches_full_decode_bit_for_bit() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let engine = CachedEngine::new();
        let a = app(vec![8.0, 5.0, 4.0, 3.0]);
        let tasks: Vec<Task> = (0..12).map(|i| task(i, a.clone(), 30)).collect();
        let v = view(4);
        let ctx = EvalContext::build(&v, &tasks, &engine);
        let w = crate::cost::CostWeights::default();
        let mut rng = SmallRng::seed_from_u64(77);
        let mut parent = Solution::random(12, 4, &mut rng);
        let mut parent_memo = DecodeMemo::default();
        let mut scratch = DecodeScratch::default();
        evaluate_delta(&v, &ctx, &parent, None, &mut parent_memo, &mut scratch, &w);
        let mut decoded_total = 0;
        for _ in 0..60 {
            // GA-operator-shaped perturbations: an order swap and/or a
            // couple of mask bit flips at random positions.
            let mut child = parent.clone();
            if rng.gen_bool(0.5) {
                let i = rng.gen_range(0..12);
                let j = rng.gen_range(0..12);
                child.order.swap(i, j);
            }
            for _ in 0..rng.gen_range(0..3) {
                let p = rng.gen_range(0..12);
                let bit = rng.gen_range(0..4);
                child.mapping[p].toggle(bit);
                child.mapping[p] = child.mapping[p].clamp_to(4).ensure_nonempty(0);
            }
            let mut child_memo = DecodeMemo::default();
            let delta_cost = evaluate_delta(
                &v,
                &ctx,
                &child,
                Some((&parent, &parent_memo)),
                &mut child_memo,
                &mut scratch,
                &w,
            );
            decoded_total += child_memo.decoded_positions();
            // From-scratch reference (also re-exercises the engine path).
            let mut fresh = DecodeMemo::default();
            let mut fresh_scratch = DecodeScratch::default();
            let full_cost =
                evaluate_delta(&v, &ctx, &child, None, &mut fresh, &mut fresh_scratch, &w);
            assert_eq!(delta_cost.to_bits(), full_cost.to_bits());
            assert_eq!(
                child_memo.summary().unwrap().makespan,
                fresh.summary().unwrap().makespan
            );
            assert_eq!(child_memo.pockets().0, fresh.pockets().0);
            assert_eq!(child_memo.pockets().1, fresh.pockets().1);
            parent = child;
            parent_memo = child_memo;
        }
        assert!(
            decoded_total < 60 * 12,
            "delta path must decode fewer positions than full re-decode"
        );
    }

    #[test]
    fn identical_offspring_copies_the_parent_memo() {
        let engine = CachedEngine::new();
        let a = app(vec![8.0, 5.0]);
        let tasks: Vec<Task> = (0..6).map(|i| task(i, a.clone(), 30)).collect();
        let v = view(2);
        let ctx = EvalContext::build(&v, &tasks, &engine);
        let w = crate::cost::CostWeights::default();
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(3);
        let sol = Solution::random(6, 2, &mut rng);
        let mut memo = DecodeMemo::default();
        let mut scratch = DecodeScratch::default();
        let cost = evaluate_delta(&v, &ctx, &sol, None, &mut memo, &mut scratch, &w);
        let clone = sol.clone();
        let mut clone_memo = DecodeMemo::default();
        let copied = evaluate_delta(
            &v,
            &ctx,
            &clone,
            Some((&sol, &memo)),
            &mut clone_memo,
            &mut scratch,
            &w,
        );
        assert_eq!(copied.to_bits(), cost.to_bits());
        assert_eq!(clone_memo.decoded_positions(), 0);
        assert!(clone_memo.is_valid());
    }

    #[test]
    fn earliest_k_view_matches_free_times() {
        let mut r = GridResource::new("S1", Platform::sgi_origin2000(), 3);
        r.commit(
            1,
            NodeMask::single(0),
            SimTime::ZERO,
            SimTime::from_secs(30),
        );
        r.commit(
            2,
            NodeMask::single(1),
            SimTime::ZERO,
            SimTime::from_secs(10),
        );
        let v = ResourceView::snapshot(&r, SimTime::ZERO).unwrap();
        assert_eq!(v.earliest_k(1), NodeMask::single(2));
        assert_eq!(v.earliest_k(2), NodeMask::from_indices([1, 2]));
        assert_eq!(v.available_count(), 3);
    }
}
