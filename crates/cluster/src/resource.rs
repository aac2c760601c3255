//! A grid resource: a homogeneous pool of processing nodes with a
//! free-time ledger.
//!
//! The ledger records, per node, the instant it next becomes free given
//! the task executions committed so far; the allocation log keeps every
//! committed `(task, node set, start, end)` tuple so the §3.3 metrics can
//! be computed after a run.

use crate::mask::{NodeMask, MAX_NODES};
use agentgrid_pace::{Platform, ResourceModel};
use agentgrid_sim::SimTime;

/// One committed task execution on a resource.
#[derive(Clone, Debug, PartialEq)]
pub struct Allocation {
    /// Grid-wide task identifier.
    pub task_id: u64,
    /// The nodes executing the task "in unison".
    pub mask: NodeMask,
    /// Start instant τ.
    pub start: SimTime,
    /// Completion instant η.
    pub end: SimTime,
}

/// A homogeneous pool of processing nodes (one paper "grid resource").
#[derive(Clone, Debug)]
pub struct GridResource {
    name: String,
    model: ResourceModel,
    free_at: Vec<SimTime>,
    /// The latest of `free_at`, kept in step by every write to it so the
    /// advertised freetime is a load, not a fold over the nodes.
    makespan: SimTime,
    available: Vec<bool>,
    log: Vec<Allocation>,
}

impl GridResource {
    /// Create a resource of `nproc` nodes of the given platform, all free
    /// and available at t = 0.
    ///
    /// # Panics
    /// If `nproc` is 0 or exceeds [`MAX_NODES`].
    pub fn new(name: &str, platform: Platform, nproc: usize) -> GridResource {
        assert!(
            (1..=MAX_NODES).contains(&nproc),
            "nproc must be in 1..={MAX_NODES}"
        );
        let model = ResourceModel::new(platform, nproc).expect("nproc >= 1");
        GridResource {
            name: name.to_string(),
            model,
            free_at: vec![SimTime::ZERO; nproc],
            makespan: SimTime::ZERO,
            available: vec![true; nproc],
            log: Vec::new(),
        }
    }

    /// The resource's agent name (e.g. `"S1"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The PACE resource model (platform + node count).
    pub fn model(&self) -> &ResourceModel {
        &self.model
    }

    /// Number of processing nodes.
    pub fn nproc(&self) -> usize {
        self.model.nproc
    }

    /// Mask of nodes currently marked available by the monitor.
    pub fn available_mask(&self) -> NodeMask {
        NodeMask::from_indices((0..self.nproc()).filter(|i| self.available[*i]))
    }

    /// Mark node `i` available/unavailable (driven by the resource
    /// monitor; unavailable nodes are excluded from new schedules but keep
    /// their committed work).
    pub fn set_node_available(&mut self, i: usize, up: bool) {
        if i < self.available.len() {
            self.available[i] = up;
        }
    }

    /// The instant node `i` next becomes free.
    pub fn node_free_at(&self, i: usize) -> SimTime {
        self.free_at[i]
    }

    /// The instant every node in `mask` is simultaneously free — the
    /// earliest start time for a task allocated that node set. For nodes
    /// already idle this is `now` in the caller's frame (the ledger stores
    /// absolute instants).
    pub fn free_time_of(&self, mask: NodeMask) -> SimTime {
        mask.iter()
            .map(|i| self.free_at[i])
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// The `k` available nodes with the earliest free times (ties broken
    /// by index). Returns fewer than `k` nodes only if fewer are available.
    pub fn earliest_k_nodes(&self, k: usize) -> NodeMask {
        let mut nodes: Vec<usize> = (0..self.nproc()).filter(|i| self.available[*i]).collect();
        nodes.sort_by_key(|i| (self.free_at[*i], *i));
        NodeMask::from_indices(nodes.into_iter().take(k))
    }

    /// The latest free time over all nodes — the GA makespan ω that the
    /// scheduler advertises as the resource's *freetime* (§3.2: "the latest
    /// GA scheduling makespan indicates the earliest (approximate) time
    /// that corresponding processors become available for more tasks").
    pub fn makespan(&self) -> SimTime {
        debug_assert_eq!(
            self.makespan,
            self.fold_makespan(),
            "cached makespan diverged from the node ledger"
        );
        self.makespan
    }

    fn fold_makespan(&self) -> SimTime {
        self.free_at
            .iter()
            .copied()
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// Commit a task execution: the nodes in `mask` run task `task_id`
    /// from `start` to `end` in unison.
    ///
    /// # Panics
    /// In debug builds, if the allocation double-books a node (starts
    /// before the node's recorded free time) or uses an out-of-range or
    /// unavailable node, or if `end < start`.
    pub fn commit(&mut self, task_id: u64, mask: NodeMask, start: SimTime, end: SimTime) {
        debug_assert!(!mask.is_empty(), "allocation must use at least one node");
        debug_assert!(end >= start, "allocation ends before it starts");
        for i in mask.iter() {
            debug_assert!(i < self.nproc(), "node {i} out of range");
            debug_assert!(
                start >= self.free_at[i],
                "node {i} double-booked: start {start:?} < free {:?}",
                self.free_at[i]
            );
            self.free_at[i] = end;
        }
        // A fold rather than a running max: should a release build
        // double-book a node, its free time can move backwards.
        self.makespan = self.fold_makespan();
        self.log.push(Allocation {
            task_id,
            mask,
            start,
            end,
        });
    }

    /// Every committed allocation, in commit order.
    pub fn allocations(&self) -> &[Allocation] {
        &self.log
    }

    /// Total busy node-seconds committed so far.
    pub fn busy_node_seconds(&self) -> f64 {
        self.log
            .iter()
            .map(|a| a.mask.count() as f64 * a.end.saturating_since(a.start).as_secs_f64())
            .sum()
    }

    /// Abort every in-flight allocation at `now` (the resource crashed):
    /// allocations ending after `now` are truncated to end at `now` —
    /// the node-time they consumed up to the crash stays in the ledger
    /// as (wasted) busy time — and every node becomes free at `now` at
    /// the latest. Returns the number of allocations truncated.
    ///
    /// # Panics
    /// In debug builds, if a truncated allocation starts after `now`
    /// (the schedulers only commit placements with `start <= now`).
    pub fn abort_running(&mut self, now: SimTime) -> usize {
        let mut aborted = 0;
        for a in &mut self.log {
            if a.end > now {
                debug_assert!(a.start <= now, "future-dated allocation at a crash");
                a.end = now;
                aborted += 1;
            }
        }
        for f in &mut self.free_at {
            if *f > now {
                *f = now;
            }
        }
        self.makespan = self.makespan.min(now);
        aborted
    }

    /// Forget all committed work and make every node free at t = 0.
    pub fn reset(&mut self) {
        self.free_at.fill(SimTime::ZERO);
        self.makespan = SimTime::ZERO;
        self.available.fill(true);
        self.log.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resource() -> GridResource {
        GridResource::new("S1", Platform::sgi_origin2000(), 4)
    }

    #[test]
    fn fresh_resource_is_all_free_and_available() {
        let r = resource();
        assert_eq!(r.nproc(), 4);
        assert_eq!(r.available_mask().count(), 4);
        assert_eq!(r.makespan(), SimTime::ZERO);
        assert!(r.allocations().is_empty());
    }

    #[test]
    fn commit_advances_free_times() {
        let mut r = resource();
        let mask = NodeMask::from_indices([0, 2]);
        r.commit(1, mask, SimTime::from_secs(0), SimTime::from_secs(10));
        assert_eq!(r.node_free_at(0), SimTime::from_secs(10));
        assert_eq!(r.node_free_at(1), SimTime::ZERO);
        assert_eq!(r.node_free_at(2), SimTime::from_secs(10));
        assert_eq!(r.makespan(), SimTime::from_secs(10));
        assert_eq!(r.free_time_of(mask), SimTime::from_secs(10));
    }

    #[test]
    fn earliest_k_prefers_idle_nodes() {
        let mut r = resource();
        r.commit(
            1,
            NodeMask::from_indices([0, 1]),
            SimTime::ZERO,
            SimTime::from_secs(20),
        );
        let m = r.earliest_k_nodes(2);
        assert_eq!(m, NodeMask::from_indices([2, 3]));
    }

    #[test]
    fn earliest_k_skips_unavailable_nodes() {
        let mut r = resource();
        r.set_node_available(2, false);
        r.set_node_available(3, false);
        let m = r.earliest_k_nodes(3);
        assert_eq!(m, NodeMask::from_indices([0, 1]));
        assert_eq!(r.available_mask().count(), 2);
    }

    #[test]
    fn earliest_k_ties_break_by_index() {
        let r = resource();
        assert_eq!(r.earliest_k_nodes(2), NodeMask::from_indices([0, 1]));
    }

    #[test]
    #[should_panic(expected = "double-booked")]
    #[cfg(debug_assertions)]
    fn double_booking_panics_in_debug() {
        let mut r = resource();
        let m = NodeMask::single(0);
        r.commit(1, m, SimTime::ZERO, SimTime::from_secs(10));
        r.commit(2, m, SimTime::from_secs(5), SimTime::from_secs(15));
    }

    #[test]
    fn busy_node_seconds_accumulates() {
        let mut r = resource();
        r.commit(
            1,
            NodeMask::from_indices([0, 1]),
            SimTime::ZERO,
            SimTime::from_secs(10),
        );
        r.commit(2, NodeMask::single(2), SimTime::ZERO, SimTime::from_secs(5));
        assert!((r.busy_node_seconds() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn abort_running_truncates_and_frees() {
        let mut r = resource();
        r.commit(
            1,
            NodeMask::from_indices([0, 1]),
            SimTime::ZERO,
            SimTime::from_secs(10),
        );
        r.commit(2, NodeMask::single(2), SimTime::ZERO, SimTime::from_secs(3));
        let aborted = r.abort_running(SimTime::from_secs(5));
        assert_eq!(aborted, 1, "only the still-running allocation truncates");
        assert_eq!(r.makespan(), SimTime::from_secs(5));
        // The truncated allocation keeps its consumed node-time.
        assert_eq!(r.allocations()[0].end, SimTime::from_secs(5));
        // The finished one is untouched; its node stays free at 3 s.
        assert_eq!(r.allocations()[1].end, SimTime::from_secs(3));
        assert_eq!(r.node_free_at(2), SimTime::from_secs(3));
        // New work can start at the crash instant without double-booking.
        r.commit(
            3,
            NodeMask::from_indices([0, 1]),
            SimTime::from_secs(5),
            SimTime::from_secs(9),
        );
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut r = resource();
        r.commit(
            1,
            NodeMask::single(0),
            SimTime::ZERO,
            SimTime::from_secs(10),
        );
        r.set_node_available(1, false);
        r.reset();
        assert_eq!(r.makespan(), SimTime::ZERO);
        assert_eq!(r.available_mask().count(), 4);
        assert!(r.allocations().is_empty());
    }

    #[test]
    #[should_panic(expected = "nproc")]
    fn rejects_zero_nodes() {
        let _ = GridResource::new("bad", Platform::sgi_origin2000(), 0);
    }
}
