//! Integration: node failures observed through grid-level monitor polls.

use agentgrid::prelude::*;
use agentgrid_cluster::monitor::AvailabilityChange;
use agentgrid_sim::SimDuration as D;

#[test]
fn grid_absorbs_a_mid_run_outage() {
    let topology = GridTopology::flat(2, 8);
    let workload = WorkloadConfig {
        requests: 40,
        interarrival: D::from_secs(2),
        seed: 51,
        agents: topology.names(),
        environment: ExecEnv::Test,
    };
    let opts = RunOptions::fast();
    let mut config = GridConfig::new(LocalPolicy::Ga, true, workload.seed);
    config.ga = opts.ga;
    let mut grid = GridSystem::new(&topology, &opts.catalog, &config);
    grid.enable_monitor_polls();

    // Half of R1's nodes die at t = 15 s and recover at t = 50 s; the
    // monitor polls every 10 s.
    {
        let monitor = grid.monitor_mut("R1").expect("R1 exists");
        monitor.set_period(D::from_secs(10));
        for node in 4..8 {
            monitor.inject(AvailabilityChange {
                at: SimTime::from_secs(15),
                node,
                up: false,
            });
        }
        for node in 4..8 {
            monitor.inject(AvailabilityChange {
                at: SimTime::from_secs(50),
                node,
                up: true,
            });
        }
    }

    let mut sim = Simulation::new();
    grid.bootstrap(&mut sim, workload.generate(&opts.catalog));
    while let Some(ev) = sim.step() {
        grid.handle(&mut sim, ev);
    }

    // Every task still completes despite the outage.
    let completed: usize = grid.schedulers().map(|s| s.completed().len()).sum();
    assert_eq!(completed, 40);
    assert!(!grid.work_remains());

    // No task that *started* strictly inside the observed outage window
    // used a dead node. (Tasks committed before — or by events processed
    // at the same instant as — the observing poll legitimately keep
    // their nodes: the staleness the paper's monitor design accepts.)
    let r1 = &grid.scheduler("R1").unwrap();
    for c in r1.completed() {
        if c.start > SimTime::from_secs(20) && c.start < SimTime::from_secs(50) {
            for node in c.mask.iter() {
                assert!(
                    node < 4,
                    "task {} started on dead node {node} at {}",
                    c.task.id,
                    c.start
                );
            }
        }
    }

    // R2 remained fully available and did some of the work.
    assert!(!grid.scheduler("R2").unwrap().completed().is_empty());
}

#[test]
fn full_outage_holds_tasks_until_recovery() {
    let topology = GridTopology::flat(1, 2);
    let opts = RunOptions::fast();
    let mut config = GridConfig::new(LocalPolicy::Ga, false, 5);
    config.ga = opts.ga;
    let mut grid = GridSystem::new(&topology, &opts.catalog, &config);
    grid.enable_monitor_polls();
    {
        let monitor = grid.monitor_mut("R1").expect("R1 exists");
        monitor.set_period(D::from_secs(5));
        for node in 0..2 {
            monitor.inject(AvailabilityChange {
                at: SimTime::from_secs(1),
                node,
                up: false,
            });
        }
        for node in 0..2 {
            monitor.inject(AvailabilityChange {
                at: SimTime::from_secs(30),
                node,
                up: true,
            });
        }
    }
    let workload = WorkloadConfig {
        requests: 5,
        interarrival: D::from_secs(2),
        seed: 5,
        agents: topology.names(),
        environment: ExecEnv::Test,
    };
    let mut sim = Simulation::new();
    // Requests start at t=2, after the outage begins but before the
    // first poll observes it; later arrivals hit the observed outage.
    grid.bootstrap(&mut sim, workload.generate(&opts.catalog));
    while let Some(ev) = sim.step() {
        grid.handle(&mut sim, ev);
    }
    let completed = grid.scheduler("R1").unwrap().completed().len();
    assert_eq!(completed, 5, "held tasks must run after recovery");
    // At least one task can only have started after the recovery poll.
    let late_start = grid
        .scheduler("R1")
        .unwrap()
        .completed()
        .iter()
        .filter(|c| c.start >= SimTime::from_secs(30))
        .count();
    assert!(late_start > 0, "some tasks must have waited out the outage");
}
