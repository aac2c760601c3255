//! Behaviour manifest: one table of configuration shapes, each pinned to
//! the exact outcome of a small run.
//!
//! Every row runs `tree(3, 4, 8)` (21 agents) under 168 requests at seed
//! 2003 and records `(fnv1a(result JSON), discovery hops, migrations,
//! pull messages, PACE cache (hits, misses, fast hits))`. The rows cover
//! every path that writes an agent capability table — periodic pull,
//! event push, gossip merges, link-delayed deliveries, crash amnesia —
//! plus both matchmakers, the FIFO and GA local policies, each fault
//! kind alone and mixed, and each head-of-hierarchy failure policy.
//!
//! The values were recorded before the ACT rows were refreshed in place;
//! a change that claims identical behaviour must leave every row as it
//! is. Regenerate a row only when a change is *meant* to alter results,
//! and say so in the commit.

use agentgrid::prelude::*;

/// FNV-1a, 64 bit — the digest the benchmark ledger reports as
/// `sim_fingerprint`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(digest, discovery hops, migrations, pull messages, (hits, misses,
/// fast hits))`.
type Observed = (&'static str, u64, usize, u64, (u64, u64, u64));

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// The shared scenario, adjusted per row by `shape`.
fn run(shape: impl FnOnce(&mut GridConfig, &mut ExperimentDesign), baseline: bool) -> String {
    let topology = GridTopology::tree(3, 4, 8);
    let workload = WorkloadConfig {
        requests: 168,
        interarrival: SimDuration::from_secs_f64(0.5),
        seed: 2003,
        agents: topology.names(),
        environment: ExecEnv::Test,
    };
    let mut design = ExperimentDesign {
        number: 3,
        local_policy: LocalPolicy::Fifo,
        agents_enabled: true,
    };
    let opts = RunOptions::fast();
    let mut config = grid_config(&design, workload.seed, &opts);
    shape(&mut config, &mut design);
    config.policy = design.local_policy;
    let mut grid = GridSystem::new(&topology, &opts.catalog, &config);
    grid.set_baseline_bookkeeping(baseline);
    let requests = workload.generate(&opts.catalog);
    let n = requests.len();
    let mut sim = Simulation::new();
    grid.bootstrap(&mut sim, requests);
    while let Some(ev) = sim.step() {
        grid.handle(&mut sim, ev);
    }
    let json = collect_result(&design, &topology, &grid, n).to_json();
    let stats = grid.engine().stats();
    format!(
        "{:?}",
        (
            format!("{:016x}", fnv1a(json.as_bytes())),
            grid.discovery_hops(),
            grid.migrations(),
            grid.pull_messages(),
            (stats.hits, stats.misses, stats.fast_hits),
        )
    )
}

fn expect(observed: String, pinned: Observed, row: &str) {
    let pinned = format!(
        "{:?}",
        (pinned.0.to_string(), pinned.1, pinned.2, pinned.3, pinned.4)
    );
    assert_eq!(observed, pinned, "identity row `{row}` diverged");
}

fn fault(plan: FaultPlan) -> impl FnOnce(&mut GridConfig, &mut ExperimentDesign) {
    move |c, _| c.chaos = plan
}

fn unchanged(_: &mut GridConfig, _: &mut ExperimentDesign) {}

const PULL: Observed = ("1ff2a1b981c70668", 424, 136, 4120, (16792, 168, 16792));

#[test]
fn periodic_pull_is_pinned() {
    expect(run(unchanged, false), PULL, "periodic pull");
}

#[test]
fn baseline_bookkeeping_matches_periodic_pull() {
    // The legacy bookkeeping rebuilds every document; results must not
    // move, so this row equals the periodic-pull row.
    expect(run(unchanged, true), PULL, "baseline bookkeeping");
}

#[test]
fn event_push_is_pinned() {
    let push = |c: &mut GridConfig, _: &mut ExperimentDesign| {
        c.advertisement = AdvertisementStrategy::EventPush {
            threshold: SimDuration::from_secs(5),
        }
    };
    expect(
        run(push, false),
        ("781b077ca704ccf7", 430, 145, 476, (17936, 168, 17936)),
        "event push",
    );
}

#[test]
fn gossip_is_pinned() {
    let gossip = |c: &mut GridConfig, _: &mut ExperimentDesign| c.gossip = true;
    expect(
        run(gossip, false),
        ("44b2870c47d81158", 1816, 140, 4640, (187568, 168, 187568)),
        "gossip",
    );
}

#[test]
fn auction_matchmaker_is_pinned() {
    let auction =
        |c: &mut GridConfig, _: &mut ExperimentDesign| c.matchmaker = MatchmakerKind::Auction;
    expect(
        run(auction, false),
        ("6bd01bc3eb14c11b", 424, 139, 3600, (17024, 168, 17024)),
        "auction",
    );
}

#[test]
fn ga_local_policy_is_pinned() {
    let ga = |_: &mut GridConfig, d: &mut ExperimentDesign| d.local_policy = LocalPolicy::Ga;
    expect(
        run(ga, false),
        ("39156e420f8b8f89", 416, 135, 3480, (27084, 168, 27084)),
        "ga",
    );
}

#[test]
fn agent_crash_is_pinned() {
    let plan = FaultPlan::none().with_crash("A3", secs(20), secs(60));
    expect(
        run(fault(plan), false),
        ("873d4802c844305b", 394, 128, 4140, (19392, 168, 19392)),
        "crash",
    );
}

#[test]
fn link_drop_is_pinned() {
    let plan = FaultPlan::none().with_link_drop("A2", "A1", secs(5), secs(70));
    expect(
        run(fault(plan), false),
        ("00f75b0f560a3c91", 354, 132, 5840, (15864, 168, 15864)),
        "link drop",
    );
}

#[test]
fn link_delay_is_pinned() {
    let plan = FaultPlan::none()
        .with_link_delay("A2", "A1", SimDuration::from_secs(15), secs(0), secs(80))
        .with_link_delay("A6", "A2", SimDuration::from_secs(7), secs(10), secs(60));
    expect(
        run(fault(plan), false),
        ("c4458b72a1946ace", 426, 136, 3680, (16824, 168, 16824)),
        "link delay",
    );
}

#[test]
fn pull_loss_is_pinned() {
    let plan = FaultPlan::none().with_pull_loss(0.3);
    expect(
        run(fault(plan), false),
        ("0bd6fcd83ce36c05", 421, 138, 3960, (15816, 168, 15816)),
        "pull loss",
    );
}

#[test]
fn act_ttl_is_pinned() {
    let plan = FaultPlan::none().with_act_ttl(SimDuration::from_secs(5));
    expect(
        run(fault(plan), false),
        ("563410d1fc6e9c20", 342, 133, 3160, (11472, 168, 11472)),
        "ttl",
    );
}

#[test]
fn scale_cycle_is_pinned() {
    let plan = FaultPlan::none().with_scale_cycle("A4", secs(20), secs(70));
    expect(
        run(fault(plan), false),
        ("98c991ec939850ab", 323, 108, 3055, (17616, 168, 17616)),
        "scale cycle",
    );
}

#[test]
fn mixed_fault_plan_is_pinned() {
    let plan = FaultPlan::none()
        .with_crash("A7", secs(15), secs(45))
        .with_link_drop("A3", "A1", secs(10), secs(50))
        .with_link_delay("A1", "A4", SimDuration::from_secs(12), secs(5), secs(65))
        .with_pull_loss(0.1)
        .with_act_ttl(SimDuration::from_secs(30));
    expect(
        run(fault(plan), false),
        ("5e2ad06b1550b205", 418, 138, 3997, (16496, 168, 16496)),
        "mixed",
    );
}

#[test]
fn event_push_over_a_delayed_link_is_pinned() {
    let shape = |c: &mut GridConfig, _: &mut ExperimentDesign| {
        c.advertisement = AdvertisementStrategy::EventPush {
            threshold: SimDuration::from_secs(5),
        };
        c.chaos = FaultPlan::none()
            .with_link_delay("A2", "A1", SimDuration::from_secs(9), secs(0), secs(80))
            .with_link_drop("A1", "A3", secs(20), secs(40));
    };
    expect(
        run(shape, false),
        ("af1a944d3e655846", 429, 144, 478, (18368, 168, 18368)),
        "push + delay",
    );
}

#[test]
fn reject_failure_policy_is_pinned() {
    // The default rows run `FailurePolicy::BestEffort`.
    let reject =
        |c: &mut GridConfig, _: &mut ExperimentDesign| c.failure_policy = FailurePolicy::Reject;
    expect(
        run(reject, false),
        ("d3d5ece778682f93", 44, 28, 1040, (10448, 168, 10448)),
        "reject",
    );
}
