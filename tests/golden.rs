//! Golden determinism test for the §9 grid-layer rework.
//!
//! `tests/golden_table3.json` was captured from `run_table3` **before**
//! interned ids, incremental bookkeeping and the timing-wheel event queue
//! landed (see `examples/golden_table3.rs` for the exact invocation). The
//! rework claims bit-identical behaviour, so the current code must
//! reproduce that file byte for byte — any divergence in event order,
//! tie-breaking or metric accounting shows up here first.
//!
//! Regenerate the fixture (`cargo run --example golden_table3`) only when
//! a change is *meant* to alter results, and say so in the commit.

use agentgrid::prelude::*;
use agentgrid_sim::SimDuration;

const GOLDEN: &str = include_str!("golden_table3.json");

fn scenario() -> (GridTopology, WorkloadConfig) {
    let topology = GridTopology::flat(3, 4);
    let workload = WorkloadConfig {
        requests: 25,
        interarrival: SimDuration::from_secs(1),
        seed: 77,
        agents: topology.names(),
        environment: ExecEnv::Test,
    };
    (topology, workload)
}

#[test]
fn table3_output_is_bit_identical_to_the_pre_rework_fixture() {
    let (topology, workload) = scenario();
    let results = run_table3(&topology, &workload, &RunOptions::fast());
    assert_eq!(
        results.to_json(),
        GOLDEN.trim_end(),
        "run_table3 output diverged from the pre-rework golden fixture"
    );
}

#[test]
fn parallel_table3_matches_the_fixture_too() {
    let (topology, workload) = scenario();
    let results = run_table3_parallel(&topology, &workload, &RunOptions::fast());
    assert_eq!(results.to_json(), GOLDEN.trim_end());
}

/// FNV-1a, 64 bit — the same digest the benchmark ledger reports as
/// `sim_fingerprint`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The discovery-heavy shape: FIFO local queues with agents on an
/// 85-agent tree, requests arriving faster than one resource drains them,
/// so most requests walk the hierarchy and eq. 10 is read far
/// more often than the ACT is written. `run_table3` above never takes
/// this path at volume. The pinned values were recorded before eq. 10's
/// inner minimisation was memoised; every count must stay exact,
/// including the PACE cache's hit accounting.
#[test]
fn discovery_heavy_tree_is_pinned() {
    let topology = GridTopology::tree(4, 4, 16);
    let workload = WorkloadConfig {
        requests: 5_000,
        interarrival: SimDuration::from_secs_f64(0.2),
        seed: 2003,
        agents: topology.names(),
        environment: ExecEnv::Test,
    };
    let design = ExperimentDesign {
        number: 3,
        local_policy: LocalPolicy::Fifo,
        agents_enabled: true,
    };
    let opts = RunOptions::paper();
    let config = grid_config(&design, workload.seed, &opts);
    let mut grid = GridSystem::new(&topology, &opts.catalog, &config);
    let requests = workload.generate(&opts.catalog);
    let n = requests.len();
    let mut sim = Simulation::new();
    grid.bootstrap(&mut sim, requests);
    while let Some(ev) = sim.step() {
        grid.handle(&mut sim, ev);
    }
    let json = collect_result(&design, &topology, &grid, n).to_json();
    let stats = grid.engine().stats();
    let observed = (
        format!("{:016x}", fnv1a(json.as_bytes())),
        grid.discovery_hops(),
        grid.migrations(),
        (stats.hits, stats.misses, stats.fast_hits),
    );
    assert_eq!(
        observed,
        (
            String::from("97423d1f4e8937ee"),
            19_632,
            4_276,
            (1_579_104, 448, 1_579_104)
        ),
        "discovery-heavy tree diverged from the pinned run"
    );
}

/// The §10 chaos layer guard: an explicitly empty [`FaultPlan`] must be
/// a strict no-op — same bytes as the pre-chaos (and pre-rework) fixture.
#[test]
fn empty_fault_plan_is_a_strict_noop() {
    let (topology, workload) = scenario();
    let mut opts = RunOptions::fast();
    opts.chaos = FaultPlan::none();
    let results = run_table3(&topology, &workload, &opts);
    assert_eq!(
        results.to_json(),
        GOLDEN.trim_end(),
        "a disabled chaos layer altered the golden output"
    );
}
