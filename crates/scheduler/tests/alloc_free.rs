//! A GA generation allocates nothing once its buffers have grown.
//!
//! Two schedulers replay the same stream; one evolves `SHORT` generations
//! per event, the other `LONG`. Everything an evolve call allocates per
//! call (the evaluation table, the committed schedule) is the same for
//! both, so the difference in heap allocations is what the extra
//! generations cost: breeding, evaluation and bookkeeping together.

use agentgrid_cluster::{ExecEnv, GridResource};
use agentgrid_pace::{AppId, ApplicationModel, CachedEngine, ModelCurve, Platform, TabulatedModel};
use agentgrid_scheduler::decode::ResourceView;
use agentgrid_scheduler::task::{Task, TaskId};
use agentgrid_scheduler::{GaConfig, GaScheduler};
use agentgrid_sim::{RngStream, SimTime};
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

const SHORT: usize = 10;
const LONG: usize = 40;

/// Six equal tasks on four nodes: the heuristic seeds already hold the
/// best schedule, so both schedulers commit the same one and the final
/// decode allocates the same for both.
fn tasks() -> Vec<Task> {
    let app = Arc::new(
        ApplicationModel::new(
            AppId(0),
            "t",
            ModelCurve::Tabulated(TabulatedModel::new(vec![10.0, 6.0, 4.0, 3.0]).unwrap()),
            (1.0, 1000.0),
        )
        .unwrap(),
    );
    (0..6)
        .map(|i| {
            Task::new(
                TaskId(i),
                app.clone(),
                SimTime::ZERO,
                SimTime::from_secs(1000),
                ExecEnv::Test,
            )
        })
        .collect()
}

/// Allocations of one evolve of `generations` generations, after warm-up
/// evolves that grow every buffer (population, memos, pocket lists) to
/// the largest shape this instance produces.
fn evolve_allocations(generations: usize) -> (u64, f64) {
    let resource = GridResource::new("S1", Platform::sgi_origin2000(), 4);
    let view = ResourceView::snapshot(&resource, SimTime::ZERO).unwrap();
    let engine = CachedEngine::new();
    let tasks = tasks();
    let config = GaConfig {
        generations_per_event: LONG,
        // No early exit: both schedulers run their full budget.
        stall_generations: usize::MAX,
        ..GaConfig::default()
    };
    let mut ga = GaScheduler::new(config, RngStream::root(2003).derive("ga"));
    for _ in 0..30 {
        ga.evolve(&view, &tasks, &engine);
    }
    ga.set_generations_per_event(generations);
    let before = allocations();
    let out = ga.evolve(&view, &tasks, &engine);
    let spent = allocations() - before;
    assert_eq!(out.generations, generations);
    (spent, out.cost)
}

#[test]
fn generations_allocate_nothing() {
    let (short, short_cost) = evolve_allocations(SHORT);
    let (long, long_cost) = evolve_allocations(LONG);
    assert_eq!(short_cost, long_cost, "both commit the same schedule");
    assert_eq!(
        long,
        short,
        "{} extra generations made {} extra allocations",
        LONG - SHORT,
        long.saturating_sub(short)
    );
}
