//! The agent and its discovery decision procedure (paper §3.1–3.2).
//!
//! "Within each agent, its own service is evaluated first. If the
//! requirement can be met locally, the discovery ends successfully.
//! Otherwise service information from both upper and lower agents is
//! evaluated and the request dispatched to the agent which is able to
//! provide the best requirement/resource match. If no service can meet the
//! requirement, the request is submitted to the upper agent. When the head
//! of the hierarchy is reached and the available service is still not
//! found, the discovery terminates unsuccessfully."
//!
//! Two deviations from the letter of the paper, both documented in
//! DESIGN.md §5.3: requests carry a visited-set so stale ACT entries
//! cannot bounce a request between two agents forever, and the
//! head-of-hierarchy failure policy is configurable — [`FailurePolicy::
//! BestEffort`] (used by the experiments, where all 600 tasks execute)
//! dispatches to the best estimate seen even though it misses the
//! deadline, while [`FailurePolicy::Reject`] reproduces the paper's
//! "terminates unsuccessfully".
//!
//! Agents refer to each other by interned [`ResourceId`] (see DESIGN.md
//! §9): neighbour lists, visited-sets and discovery decisions carry
//! 4-byte ids, and names are resolved through the shared [`NameTable`]
//! only at construction and reporting edges. Because ids are assigned in
//! lexicographic name order, the candidate tie-break `(completion, id)`
//! reproduces the legacy `(completion, name)` ordering bit for bit.

use crate::act::Act;
use crate::advertise::AdvertisementStrategy;
use crate::info::{RequestInfo, ServiceInfo};
use crate::matchmaking::{FreetimeMatchmaker, MatchEstimate, Matchmaker};
use agentgrid_pace::{ApplicationModel, CachedEngine, Platform};
use agentgrid_sim::{SimDuration, SimTime};
use agentgrid_telemetry::{Event, NameTable, ResourceId, Telemetry};
use std::sync::Arc;

/// What an agent does with a request it cannot satisfy anywhere.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailurePolicy {
    /// The paper's behaviour: the discovery terminates unsuccessfully at
    /// the head of the hierarchy.
    Reject,
    /// Dispatch to the best estimated completion seen (deadline missed
    /// but the task still runs) — required for the case-study workload
    /// where all 600 tasks execute.
    BestEffort,
}

/// A request travelling through the hierarchy.
#[derive(Clone, Debug)]
pub struct RequestEnvelope {
    /// The user's request (shared: a discovery walk re-reads it at every
    /// hop, so the envelope holds an `Arc` instead of cloning strings).
    pub request: Arc<RequestInfo>,
    /// Agents that have already evaluated this request, in hop order
    /// (telemetry and traces report this order). Membership queries go
    /// through the sorted `index` — keep mutations on [`Self::visit`].
    pub visited: Vec<ResourceId>,
    /// The same ids kept sorted, so `has_visited` is a binary search
    /// instead of an O(n) scan repeated at every ACT candidate.
    index: Vec<ResourceId>,
    /// Number of agent-to-agent hops so far.
    pub hops: usize,
    /// Grid-wide task id this request resolved to (0 until assigned);
    /// carried so agents can stamp telemetry with the task identity.
    pub task: u64,
}

/// Hop budget: beyond this a request is executed wherever it is (or
/// rejected) rather than forwarded again.
pub const MAX_HOPS: usize = 32;

impl RequestEnvelope {
    /// Wrap a fresh request.
    pub fn new(request: impl Into<Arc<RequestInfo>>) -> RequestEnvelope {
        RequestEnvelope {
            request: request.into(),
            visited: Vec::new(),
            index: Vec::new(),
            hops: 0,
            task: 0,
        }
    }

    /// Tag the envelope with the task id it resolved to (builder style).
    pub fn with_task(mut self, task: u64) -> RequestEnvelope {
        self.task = task;
        self
    }

    /// Record that `agent` has evaluated this request.
    pub fn visit(&mut self, agent: ResourceId) {
        if let Err(pos) = self.index.binary_search(&agent) {
            self.index.insert(pos, agent);
            self.visited.push(agent);
        }
    }

    /// Whether `agent` has already evaluated this request.
    pub fn has_visited(&self, agent: ResourceId) -> bool {
        self.index.binary_search(&agent).is_ok()
    }
}

/// The outcome of one agent's discovery step.
#[derive(Clone, Debug, PartialEq)]
pub enum DiscoveryDecision {
    /// The local scheduler can meet the requirement — submit locally.
    ExecuteLocally {
        /// η of the local estimate (eq. 10 on live data).
        estimated: SimTime,
        /// Whether the estimate met the deadline (false only under
        /// best-effort placement).
        within_deadline: bool,
    },
    /// Forward to a neighbour whose advertised service matches best.
    Dispatch {
        /// Target agent.
        to: ResourceId,
        /// η of the winning match.
        estimated: SimTime,
        /// Whether the estimate met the deadline.
        within_deadline: bool,
    },
    /// No match anywhere in view — submit the request to the upper agent.
    Escalate {
        /// The upper agent.
        to: ResourceId,
    },
    /// Discovery terminated unsuccessfully ("a request for computing
    /// resource which is not supported by the available grid").
    Reject,
}

/// One agent of the homogeneous hierarchy.
#[derive(Clone, Debug)]
pub struct Agent {
    names: Arc<NameTable>,
    id: ResourceId,
    upper: Option<ResourceId>,
    lower: Vec<ResourceId>,
    act: Act,
    act_ttl: Option<SimDuration>,
    policy: FailurePolicy,
    strategy: AdvertisementStrategy,
    matchmaker: Arc<dyn Matchmaker>,
    telemetry: Telemetry,
}

impl Agent {
    /// Create a standalone agent, interning its own name and its
    /// neighbours' names into a private table. Hierarchies share one
    /// table instead — see [`Agent::with_table`].
    pub fn new(name: &str, upper: Option<&str>, lower: Vec<String>) -> Agent {
        let names = NameTable::from_names(
            std::iter::once(name)
                .chain(upper)
                .chain(lower.iter().map(String::as_str)),
        );
        let id = names.expect_id(name);
        let upper = upper.map(|u| names.expect_id(u));
        let lower = lower.iter().map(|l| names.expect_id(l)).collect();
        Agent::with_table(names, id, upper, lower)
    }

    /// Create an agent at `id` within a shared name table.
    pub fn with_table(
        names: Arc<NameTable>,
        id: ResourceId,
        upper: Option<ResourceId>,
        lower: Vec<ResourceId>,
    ) -> Agent {
        Agent {
            names,
            id,
            upper,
            lower,
            act: Act::new(),
            act_ttl: None,
            policy: FailurePolicy::BestEffort,
            strategy: AdvertisementStrategy::default(),
            matchmaker: Arc::new(FreetimeMatchmaker),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Record discovery decisions and advertisement receptions through
    /// `telemetry`. Disabled by default.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Set the failure policy (builder style).
    pub fn with_policy(mut self, policy: FailurePolicy) -> Agent {
        self.policy = policy;
        self
    }

    /// Set the advertisement strategy (builder style).
    pub fn with_strategy(mut self, strategy: AdvertisementStrategy) -> Agent {
        self.strategy = strategy;
        self
    }

    /// Set the matchmaking rule (builder style). Defaults to
    /// [`FreetimeMatchmaker`], the paper's eq. 10 ranking.
    pub fn with_matchmaker(mut self, matchmaker: Arc<dyn Matchmaker>) -> Agent {
        self.matchmaker = matchmaker;
        self
    }

    /// The matchmaking rule in force.
    pub fn matchmaker(&self) -> &Arc<dyn Matchmaker> {
        &self.matchmaker
    }

    /// The agent's name.
    pub fn name(&self) -> &str {
        self.names.name(self.id)
    }

    /// The agent's interned id.
    pub fn id(&self) -> ResourceId {
        self.id
    }

    /// The name table this agent resolves ids through.
    pub fn table(&self) -> &Arc<NameTable> {
        &self.names
    }

    /// Resolve a name through this agent's table (panics on unknown
    /// names; intended for construction and tests).
    pub fn id_of(&self, name: &str) -> ResourceId {
        self.names.expect_id(name)
    }

    /// The upper agent's name, if any (the head has none).
    pub fn upper(&self) -> Option<&str> {
        self.upper.map(|u| self.names.name(u))
    }

    /// The upper agent's id, if any.
    pub fn upper_id(&self) -> Option<ResourceId> {
        self.upper
    }

    /// Lower (child) agents' names.
    pub fn lower(&self) -> Vec<&str> {
        self.lower.iter().map(|l| self.names.name(*l)).collect()
    }

    /// Lower (child) agents' ids.
    pub fn lower_ids(&self) -> &[ResourceId] {
        &self.lower
    }

    /// Upper and lower neighbours — the only agents this one talks to
    /// ("each agent is only aware of neighbouring agents").
    pub fn neighbours(&self) -> impl Iterator<Item = &str> {
        self.neighbour_ids().map(|id| self.names.name(id))
    }

    /// Neighbour ids, upper first then lower in id order.
    pub fn neighbour_ids(&self) -> impl Iterator<Item = ResourceId> + '_ {
        self.upper.into_iter().chain(self.lower.iter().copied())
    }

    /// The failure policy in force.
    pub fn policy(&self) -> FailurePolicy {
        self.policy
    }

    /// The advertisement strategy in force.
    pub fn strategy(&self) -> AdvertisementStrategy {
        self.strategy
    }

    /// This agent's capability table.
    pub fn act(&self) -> &Act {
        &self.act
    }

    /// Ignore ACT entries older than `ttl` during matchmaking (`None`,
    /// the default, keeps the paper's never-expire behaviour). A crashed
    /// neighbour stops advertising; with a TTL its frozen freetime ages
    /// out of eq. 10 instead of winning forever.
    pub fn set_act_ttl(&mut self, ttl: Option<SimDuration>) {
        self.act_ttl = ttl;
    }

    /// The ACT entry TTL in force, if any.
    pub fn act_ttl(&self) -> Option<SimDuration> {
        self.act_ttl
    }

    /// Forget every ACT entry (crash amnesia: a restarted agent knows
    /// nothing until neighbours advertise again).
    pub fn clear_act(&mut self) {
        self.act.clear();
    }

    /// Record service info received from a neighbour.
    pub fn update_act(&mut self, from: ResourceId, info: ServiceInfo, now: SimTime) {
        self.act.update(from, info, now);
    }

    /// [`Agent::update_act`] plus an [`Event::Advertise`] telemetry
    /// record noting whether the information arrived by push or pull.
    pub fn receive_advertisement(
        &mut self,
        from: ResourceId,
        info: ServiceInfo,
        now: SimTime,
        push: bool,
    ) {
        let names = &self.names;
        self.telemetry.emit(now.ticks(), || Event::Advertise {
            agent: names.name(from).to_string(),
            to: names.name(self.id).to_string(),
            push,
        });
        self.act.update(from, info, now);
    }

    /// [`Agent::receive_advertisement`] with the telemetry record
    /// *deferred*: the would-be [`Event::Advertise`] is appended to
    /// `buf` instead of being emitted. Shard workers apply pull batches
    /// through this and the coordinator replays the buffered events in
    /// sequential delivery order, so the recorded stream is identical to
    /// an unsharded run. No-op buffering when telemetry is disabled.
    pub fn receive_advertisement_into(
        &mut self,
        from: ResourceId,
        info: ServiceInfo,
        now: SimTime,
        push: bool,
        buf: &mut Vec<Event>,
    ) {
        if self.telemetry.is_enabled() {
            buf.push(Event::Advertise {
                agent: self.names.name(from).to_string(),
                to: self.names.name(self.id).to_string(),
                push,
            });
        }
        self.act.update(from, info, now);
    }

    /// Merge a gossiped capability table (keep-freshest; entries about
    /// this agent itself are dropped).
    pub fn merge_act(&mut self, table: &Act) {
        self.act.merge(table, self.id);
    }

    /// One discovery step (paper §3.2). `local` is this agent's *live*
    /// service information (generated from its scheduler right now, not
    /// from the ACT); `app` is the PACE model named by the request.
    pub fn decide(
        &self,
        envelope: &RequestEnvelope,
        app: &ApplicationModel,
        local: &ServiceInfo,
        now: SimTime,
        platforms: &[Platform],
        engine: &CachedEngine,
    ) -> DiscoveryDecision {
        let decision = self.decide_inner(envelope, app, local, now, platforms, engine);
        self.telemetry.emit(now.ticks(), || Event::Discovery {
            task: envelope.task,
            agent: self.name().to_string(),
            decision: match &decision {
                DiscoveryDecision::ExecuteLocally { .. } => "local",
                DiscoveryDecision::Dispatch { .. } => "dispatch",
                DiscoveryDecision::Escalate { .. } => "escalate",
                DiscoveryDecision::Reject => "reject",
            }
            .to_string(),
            hops: envelope.hops as u32,
        });
        decision
    }

    fn decide_inner(
        &self,
        envelope: &RequestEnvelope,
        app: &ApplicationModel,
        local: &ServiceInfo,
        now: SimTime,
        platforms: &[Platform],
        engine: &CachedEngine,
    ) -> DiscoveryDecision {
        let env = envelope.request.environment;
        let deadline = envelope.request.deadline;

        // 1. Own service first.
        let local_est = self
            .matchmaker
            .evaluate(local, app, env, deadline, now, platforms, engine)
            .ok();
        if let Some(est) = &local_est {
            if est.meets_deadline {
                return DiscoveryDecision::ExecuteLocally {
                    estimated: est.completion,
                    within_deadline: true,
                };
            }
        }

        // Hop budget exhausted: stop forwarding.
        if envelope.hops >= MAX_HOPS {
            return match (&local_est, self.policy) {
                (Some(est), FailurePolicy::BestEffort) => DiscoveryDecision::ExecuteLocally {
                    estimated: est.completion,
                    within_deadline: false,
                },
                _ => DiscoveryDecision::Reject,
            };
        }

        // 2. Advertised services in the capability table — the
        // neighbours under periodic pull, the whole known grid under
        // gossip — and the best match wins. Candidates rank by the
        // matchmaker's score (== completion under freetime, the
        // provider's bid under auction), ties by id == lexicographic name
        // order (NameTable interns sorted), matching the legacy string
        // compare exactly. Two running bests replace a ranked list: the
        // best candidate that meets the deadline, and the best overall
        // for the best-effort fallback.
        let mut best_meeting: Option<(ResourceId, MatchEstimate)> = None;
        let mut best_any: Option<(ResourceId, MatchEstimate)> = None;
        let ranks_before =
            |est: &MatchEstimate, id: ResourceId, best: Option<(ResourceId, MatchEstimate)>| {
                best.is_none_or(|(b_id, b)| (est.score, id) < (b.score, b_id))
            };
        for (known, entry) in self.act.iter() {
            if known == self.id || envelope.has_visited(known) {
                continue;
            }
            // Stale entries (no advertisement within the TTL) are
            // excluded: their frozen freetime says nothing about a
            // neighbour that may be down.
            if let Some(ttl) = self.act_ttl {
                if now.saturating_since(entry.received_at) > ttl {
                    continue;
                }
            }
            if let Ok(est) =
                self.matchmaker
                    .evaluate(&entry.info, app, env, deadline, now, platforms, engine)
            {
                if est.meets_deadline && ranks_before(&est, known, best_meeting) {
                    best_meeting = Some((known, est));
                }
                if ranks_before(&est, known, best_any) {
                    best_any = Some((known, est));
                }
            }
        }
        if let Some((to, est)) = best_meeting {
            return DiscoveryDecision::Dispatch {
                to,
                estimated: est.completion,
                within_deadline: true,
            };
        }

        // 3. No match in view: escalate to the upper agent.
        if let Some(upper) = self.upper {
            if !envelope.has_visited(upper) {
                return DiscoveryDecision::Escalate { to: upper };
            }
        }

        // 4. Head of the hierarchy (or upper already visited): fail.
        match self.policy {
            FailurePolicy::Reject => DiscoveryDecision::Reject,
            FailurePolicy::BestEffort => {
                // Best estimate among local and unvisited neighbours,
                // deadline ignored.
                let mut best: Option<DiscoveryDecision> = None;
                let mut best_score = SimTime::MAX;
                if let Some(est) = &local_est {
                    best_score = est.score;
                    best = Some(DiscoveryDecision::ExecuteLocally {
                        estimated: est.completion,
                        within_deadline: false,
                    });
                }
                if let Some((to, est)) = best_any {
                    if est.score < best_score {
                        best = Some(DiscoveryDecision::Dispatch {
                            to,
                            estimated: est.completion,
                            within_deadline: false,
                        });
                    }
                }
                best.unwrap_or(DiscoveryDecision::Reject)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::info::Endpoint;
    use agentgrid_cluster::ExecEnv;
    use agentgrid_pace::Catalog;

    fn service(machine: &str, nproc: usize, freetime_s: u64) -> ServiceInfo {
        ServiceInfo {
            agent: Endpoint::new("host", 1000),
            local: Endpoint::new("host", 10000),
            machine_type: machine.into(),
            nproc,
            environments: vec![ExecEnv::Test].into(),
            freetime: SimTime::from_secs(freetime_s),
        }
    }

    fn request(deadline_s: u64) -> RequestEnvelope {
        RequestEnvelope::new(RequestInfo {
            application: "sweep3d".into(),
            binary_file: "/bin/sweep3d".into(),
            input_file: "/bin/input.50".into(),
            model_name: "/model/sweep3d".into(),
            environment: ExecEnv::Test,
            deadline: SimTime::from_secs(deadline_s),
            email: "user@example.org".into(),
        })
    }

    fn sweep3d() -> ApplicationModel {
        Catalog::case_study().by_name("sweep3d").unwrap().clone()
    }

    fn platforms() -> Vec<Platform> {
        Platform::case_study_set()
    }

    #[test]
    fn local_service_wins_when_deadline_met() {
        let agent = Agent::new("S5", Some("S2"), vec![]);
        let engine = CachedEngine::new();
        // SunUltra5, idle: sweep3d best = 4 s × 2.5 = 10 s ≤ 100 s.
        let d = agent.decide(
            &request(100),
            &sweep3d(),
            &service("SunUltra5", 16, 0),
            SimTime::ZERO,
            &platforms(),
            &engine,
        );
        assert!(matches!(
            d,
            DiscoveryDecision::ExecuteLocally {
                within_deadline: true,
                ..
            }
        ));
    }

    #[test]
    fn busy_local_dispatches_to_best_neighbour() {
        let mut agent = Agent::new("S5", Some("S2"), vec!["S6".into(), "S7".into()]);
        let engine = CachedEngine::new();
        agent.update_act(
            agent.id_of("S2"),
            service("SGIOrigin2000", 16, 20),
            SimTime::ZERO,
        );
        agent.update_act(
            agent.id_of("S6"),
            service("SunUltra5", 16, 0),
            SimTime::ZERO,
        );
        agent.update_act(
            agent.id_of("S7"),
            service("SunUltra5", 16, 200),
            SimTime::ZERO,
        );
        // Local is backlogged 500 s; S6 (idle, completes at 10) beats S2
        // (freetime 20 → completes 24) and S7 (backlogged).
        let d = agent.decide(
            &request(60),
            &sweep3d(),
            &service("SunUltra5", 16, 500),
            SimTime::ZERO,
            &platforms(),
            &engine,
        );
        match d {
            DiscoveryDecision::Dispatch {
                to,
                within_deadline,
                ..
            } => {
                assert_eq!(to, agent.id_of("S6"));
                assert!(within_deadline);
            }
            other => panic!("expected dispatch, got {other:?}"),
        }
    }

    #[test]
    fn no_match_escalates_to_upper() {
        let mut agent = Agent::new("S5", Some("S2"), vec!["S6".into()]);
        let engine = CachedEngine::new();
        agent.update_act(
            agent.id_of("S6"),
            service("SunUltra5", 16, 900),
            SimTime::ZERO,
        );
        // Everything (local + S6) is too backlogged for a 30 s deadline.
        let d = agent.decide(
            &request(30),
            &sweep3d(),
            &service("SunUltra5", 16, 900),
            SimTime::ZERO,
            &platforms(),
            &engine,
        );
        assert_eq!(
            d,
            DiscoveryDecision::Escalate {
                to: agent.id_of("S2")
            }
        );
    }

    #[test]
    fn head_with_reject_policy_rejects() {
        let agent = Agent::new("S1", None, vec!["S2".into()]).with_policy(FailurePolicy::Reject);
        let engine = CachedEngine::new();
        let d = agent.decide(
            &request(1), // impossible deadline
            &sweep3d(),
            &service("SGIOrigin2000", 16, 500),
            SimTime::ZERO,
            &platforms(),
            &engine,
        );
        assert_eq!(d, DiscoveryDecision::Reject);
    }

    #[test]
    fn head_with_best_effort_places_somewhere() {
        let mut agent = Agent::new("S1", None, vec!["S2".into()]);
        let engine = CachedEngine::new();
        agent.update_act(
            agent.id_of("S2"),
            service("SGIOrigin2000", 16, 100),
            SimTime::ZERO,
        );
        // Local backlogged 500 s, S2 100 s: best effort goes to S2 even
        // though the 1 s deadline is hopeless.
        let d = agent.decide(
            &request(1),
            &sweep3d(),
            &service("SGIOrigin2000", 16, 500),
            SimTime::ZERO,
            &platforms(),
            &engine,
        );
        match d {
            DiscoveryDecision::Dispatch {
                to,
                within_deadline,
                ..
            } => {
                assert_eq!(to, agent.id_of("S2"));
                assert!(!within_deadline);
            }
            other => panic!("expected best-effort dispatch, got {other:?}"),
        }
    }

    #[test]
    fn visited_agents_are_not_revisited() {
        let mut agent = Agent::new("S1", None, vec!["S2".into()]);
        let engine = CachedEngine::new();
        agent.update_act(
            agent.id_of("S2"),
            service("SGIOrigin2000", 16, 0),
            SimTime::ZERO,
        );
        let mut env = request(100);
        env.visit(agent.id_of("S2"));
        // S2 would match but was already visited; local (backlogged) is
        // the only best-effort option left.
        let d = agent.decide(
            &env,
            &sweep3d(),
            &service("SGIOrigin2000", 16, 500),
            SimTime::ZERO,
            &platforms(),
            &engine,
        );
        assert!(matches!(d, DiscoveryDecision::ExecuteLocally { .. }));
    }

    #[test]
    fn hop_budget_forces_local_execution() {
        let agent = Agent::new("S5", Some("S2"), vec![]);
        let engine = CachedEngine::new();
        let mut env = request(1);
        env.hops = MAX_HOPS;
        let d = agent.decide(
            &env,
            &sweep3d(),
            &service("SunUltra5", 16, 500),
            SimTime::ZERO,
            &platforms(),
            &engine,
        );
        assert!(matches!(
            d,
            DiscoveryDecision::ExecuteLocally {
                within_deadline: false,
                ..
            }
        ));
    }

    #[test]
    fn envelope_visit_dedupes() {
        let mut env = request(10);
        env.visit(ResourceId(1));
        env.visit(ResourceId(1));
        assert_eq!(env.visited, vec![ResourceId(1)]);
        assert!(env.has_visited(ResourceId(1)));
        assert!(!env.has_visited(ResourceId(2)));
    }

    #[test]
    fn envelope_preserves_hop_order_with_sorted_membership() {
        let mut env = request(10);
        for id in [5, 3, 9, 3, 5, 1] {
            env.visit(ResourceId(id));
        }
        // Hop order survives (telemetry/trace-visible)…
        assert_eq!(
            env.visited,
            vec![ResourceId(5), ResourceId(3), ResourceId(9), ResourceId(1)]
        );
        // …while membership queries answer correctly.
        for id in [1, 3, 5, 9] {
            assert!(env.has_visited(ResourceId(id)));
        }
        for id in [0, 2, 4, 8, 100] {
            assert!(!env.has_visited(ResourceId(id)));
        }
    }

    #[test]
    fn stale_act_entries_are_excluded_under_a_ttl() {
        let mut agent = Agent::new("S5", Some("S2"), vec!["S6".into()]);
        let engine = CachedEngine::new();
        // S6 advertised at t=0; by t=60 that entry is 60 s old.
        agent.update_act(
            agent.id_of("S6"),
            service("SunUltra5", 16, 0),
            SimTime::ZERO,
        );
        let now = SimTime::from_secs(60);
        let busy_local = service("SunUltra5", 16, 500);
        // Without a TTL the stale S6 entry wins.
        let d = agent.decide(
            &request(120),
            &sweep3d(),
            &busy_local,
            now,
            &platforms(),
            &engine,
        );
        assert!(matches!(d, DiscoveryDecision::Dispatch { .. }));
        // With a 30 s TTL the entry is stale: no candidate, escalate.
        agent.set_act_ttl(Some(agentgrid_sim::SimDuration::from_secs(30)));
        let d = agent.decide(
            &request(120),
            &sweep3d(),
            &busy_local,
            now,
            &platforms(),
            &engine,
        );
        assert_eq!(
            d,
            DiscoveryDecision::Escalate {
                to: agent.id_of("S2")
            }
        );
        // clear_act leaves no candidates even without a TTL.
        agent.set_act_ttl(None);
        agent.clear_act();
        assert!(agent.act().is_empty());
    }

    #[test]
    fn neighbours_include_upper_and_lower() {
        let agent = Agent::new("S2", Some("S1"), vec!["S5".into(), "S6".into()]);
        let n: Vec<&str> = agent.neighbours().collect();
        assert_eq!(n, ["S1", "S5", "S6"]);
        assert_eq!(agent.name(), "S2");
        assert_eq!(agent.upper(), Some("S1"));
        assert_eq!(agent.lower(), ["S5", "S6"]);
    }
}
