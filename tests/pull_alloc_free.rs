//! An advertisement pull costs no heap allocation and no reference-count
//! traffic once the capability tables are full.
//!
//! A FIFO grid on `tree(3, 4, 8)` runs past its first pulls; then 10 000
//! `AdvertisementPull` events are handled under a counting allocator.
//! They must allocate nothing, and every resource document's shared
//! parts must be held by exactly as many owners afterwards: an ACT row
//! refreshed in place keeps the `Arc`s it already had.
//!
//! A pull reschedules itself, and the timing wheel frees a bucket's
//! buffer whenever it cascades that bucket, so under the wheel every
//! new instant costs a few allocations whatever the grid does. The run
//! therefore drives the binary-heap queue, which delivers the identical
//! schedule from one buffer that stops growing after warm-up: what is
//! counted is the grid's own work.

use agentgrid::prelude::*;
use agentgrid_sim::EventQueue;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Counts heap allocations made by the current thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const PULLS: usize = 10_000;

/// Owners of each shared part of every resource's document.
fn strong_counts(grid: &GridSystem, now: SimTime) -> Vec<[usize; 4]> {
    grid.names()
        .ids()
        .map(|id| {
            let info = grid.service_info_id(id, now);
            [
                Arc::strong_count(&info.agent.address),
                Arc::strong_count(&info.local.address),
                Arc::strong_count(&info.machine_type),
                Arc::strong_count(&info.environments),
            ]
        })
        .collect()
}

#[test]
fn steady_state_pulls_allocate_nothing_and_leave_refcounts_alone() {
    let topology = GridTopology::tree(3, 4, 8);
    // 21 agents pull every 10 s: 10 000 pulls span about 4 800 s, so the
    // requests keep arriving past that and the pull chains stay live.
    let workload = WorkloadConfig {
        requests: 700,
        interarrival: SimDuration::from_secs(10),
        seed: 2003,
        agents: topology.names(),
        environment: ExecEnv::Test,
    };
    let opts = RunOptions::fast();
    let design = ExperimentDesign {
        number: 3,
        local_policy: LocalPolicy::Fifo,
        agents_enabled: true,
    };
    let config = grid_config(&design, workload.seed, &opts);
    let mut grid = GridSystem::new(&topology, &opts.catalog, &config);
    let mut sim = Simulation::with_queue(EventQueue::heap());
    grid.bootstrap(&mut sim, workload.generate(&opts.catalog));

    // Warm-up: every table fills and the event queue reaches its size.
    while sim.peek_at().is_some_and(|at| at < SimTime::from_secs(200)) {
        let ev = sim.step().expect("peeked");
        grid.handle(&mut sim, ev);
    }
    let before = strong_counts(&grid, sim.now());
    let rows: usize = grid
        .names()
        .ids()
        .map(|id| grid.hierarchy().agent(id).act().len())
        .sum();

    let mut pulls = 0;
    let mut allocated = 0;
    while pulls < PULLS {
        let ev = sim
            .step()
            .expect("the workload outlives the measured pulls");
        if matches!(ev, GridEvent::AdvertisementPull { .. }) {
            let start = allocations();
            grid.handle(&mut sim, ev);
            allocated += allocations() - start;
            pulls += 1;
        } else {
            grid.handle(&mut sim, ev);
        }
    }

    assert_eq!(allocated, 0, "{PULLS} steady-state pulls allocated");
    assert_eq!(
        strong_counts(&grid, sim.now()),
        before,
        "a pull changed who holds a resource document"
    );
    let rows_after: usize = grid
        .names()
        .ids()
        .map(|id| grid.hierarchy().agent(id).act().len())
        .sum();
    assert_eq!(rows_after, rows, "pulls only refresh known rows");
}
