//! Matchmaking between a request and advertised service info (eq. 10).
//!
//! "The expected execution completion time for a given task on a given
//! resource can be estimated using η_r = ω + min over non-empty node
//! subsets of t(ρ, σ_r). For a homogeneous local grid resource, the PACE
//! evaluation function is called n times. If η_r ≤ δ_r, the resource is
//! considered to be able to meet the required deadline."
//!
//! The estimate is deliberately simple: it charges the *whole* advertised
//! freetime ω before the task can start, even though the local GA may
//! interleave it earlier — "the performance estimation of local grid
//! resources at the agent level is simple but efficient".
//!
//! Matchmaking is pluggable through the [`Matchmaker`] trait. The
//! default [`FreetimeMatchmaker`] ranks candidates by the eq. 10
//! completion itself. [`AuctionMatchmaker`] instead treats every
//! advertised service as a *bid*: each provider prices its queue-wait
//! under a deterministic per-host strategy (aggressive providers shave
//! the advertised wait to win work, conservative ones pad it — a
//! single-round sealed-bid auction in the spirit of arXiv 1803.04385),
//! and the agent awards the task to the lowest bid. Every matchmaker
//! must preserve the physical estimate: `completion` and
//! `meets_deadline` are eq. 10 facts, only [`MatchEstimate::score`]
//! (the ranking key) may differ.

use crate::info::ServiceInfo;
use agentgrid_cluster::ExecEnv;
use agentgrid_pace::{ApplicationModel, CachedEngine, Platform};
use agentgrid_sim::{SimDuration, SimTime};

/// The outcome of evaluating one advertised service against a request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MatchEstimate {
    /// η_r: expected completion instant on this resource.
    pub completion: SimTime,
    /// The processor count achieving the inner minimum.
    pub nprocs: usize,
    /// Whether η_r ≤ δ_r (the resource "is considered able to meet the
    /// required deadline").
    pub meets_deadline: bool,
    /// The ranking key candidates are sorted by. Equal to `completion`
    /// under the freetime matchmaker; the provider's bid under the
    /// auction matchmaker.
    pub score: SimTime,
}

/// Why a service could not be matched at all.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MatchError {
    /// The advertised scheduler does not offer the requested environment.
    EnvironmentUnsupported,
    /// The advertised machine type is not in the platform registry.
    UnknownPlatform(String),
}

/// Evaluate eq. 10 for `app` with deadline `deadline` against one
/// advertised service. `platforms` is the PACE resource-model registry
/// (machine-type name → benchmark factors); `now` floors the advertised
/// freetime, which may be stale and in the past.
pub fn estimate(
    info: &ServiceInfo,
    app: &ApplicationModel,
    env: ExecEnv,
    deadline: SimTime,
    now: SimTime,
    platforms: &[Platform],
    engine: &CachedEngine,
) -> Result<MatchEstimate, MatchError> {
    if !info.supports(env) {
        return Err(MatchError::EnvironmentUnsupported);
    }
    let platform = platforms
        .iter()
        .find(|p| p.name.as_str() == &*info.machine_type)
        .ok_or_else(|| MatchError::UnknownPlatform(info.machine_type.to_string()))?;
    let (nprocs, best_s) = engine.best_time_on(app, platform, info.nproc);
    let start = info.freetime.max(now);
    let completion = start + SimDuration::from_secs_f64(best_s);
    Ok(MatchEstimate {
        completion,
        nprocs,
        meets_deadline: completion <= deadline,
        score: completion,
    })
}

/// A pluggable requirement/resource matching rule.
///
/// Contract (enforced by the verify crate's per-entrant agreement
/// tests): `completion`, `nprocs` and `meets_deadline` must equal the
/// eq. 10 reference — a matchmaker may only change `score`, the key
/// candidates are ranked by. Evaluation must be deterministic: the same
/// inputs always produce the same estimate (no clocks, no RNG).
pub trait Matchmaker: Send + Sync + std::fmt::Debug {
    /// Stable lowercase identifier (`"freetime"`, `"auction"`).
    fn name(&self) -> &'static str;

    /// Evaluate one advertised service against a request.
    #[allow(clippy::too_many_arguments)]
    fn evaluate(
        &self,
        info: &ServiceInfo,
        app: &ApplicationModel,
        env: ExecEnv,
        deadline: SimTime,
        now: SimTime,
        platforms: &[Platform],
        engine: &CachedEngine,
    ) -> Result<MatchEstimate, MatchError>;
}

/// The paper's matchmaker: rank by the eq. 10 completion estimate
/// itself (`score == completion`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FreetimeMatchmaker;

impl Matchmaker for FreetimeMatchmaker {
    fn name(&self) -> &'static str {
        "freetime"
    }

    fn evaluate(
        &self,
        info: &ServiceInfo,
        app: &ApplicationModel,
        env: ExecEnv,
        deadline: SimTime,
        now: SimTime,
        platforms: &[Platform],
        engine: &CachedEngine,
    ) -> Result<MatchEstimate, MatchError> {
        estimate(info, app, env, deadline, now, platforms, engine)
    }
}

/// How a provider prices the queue-wait component of its bid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProviderStrategy {
    /// Shave a quarter off the advertised wait to win work.
    Aggressive,
    /// Bid the eq. 10 estimate as-is.
    Truthful,
    /// Pad the advertised wait by half to protect local headroom.
    Conservative,
}

impl ProviderStrategy {
    /// The strategy a provider plays, derived deterministically from its
    /// agent endpoint (FNV-1a over `address:port`), so every consumer
    /// agent in the grid sees the same bid from the same provider.
    pub fn for_endpoint(address: &str, port: u16) -> ProviderStrategy {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = FNV_OFFSET;
        for byte in address.bytes().chain(port.to_be_bytes()) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        match hash % 3 {
            0 => ProviderStrategy::Aggressive,
            1 => ProviderStrategy::Truthful,
            _ => ProviderStrategy::Conservative,
        }
    }

    /// Price a wait of `wait` seconds under this strategy.
    fn priced_wait(&self, wait: SimDuration) -> SimDuration {
        let w = wait.as_secs_f64();
        let priced = match self {
            ProviderStrategy::Aggressive => w * 0.75,
            ProviderStrategy::Truthful => w,
            ProviderStrategy::Conservative => w * 1.5,
        };
        SimDuration::from_secs_f64(priced)
    }
}

/// A sealed-bid auction over advertised services: each provider bids
/// `now + priced_wait + execution`, where the wait pricing follows its
/// [`ProviderStrategy`]; the consumer agent awards the task to the
/// lowest bid. Physical facts (`completion`, `meets_deadline`) are the
/// untouched eq. 10 estimate — only the ranking changes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AuctionMatchmaker;

impl Matchmaker for AuctionMatchmaker {
    fn name(&self) -> &'static str {
        "auction"
    }

    fn evaluate(
        &self,
        info: &ServiceInfo,
        app: &ApplicationModel,
        env: ExecEnv,
        deadline: SimTime,
        now: SimTime,
        platforms: &[Platform],
        engine: &CachedEngine,
    ) -> Result<MatchEstimate, MatchError> {
        let mut est = estimate(info, app, env, deadline, now, platforms, engine)?;
        let start = info.freetime.max(now);
        let wait = start.saturating_since(now);
        let exec = est.completion.saturating_since(start);
        let strategy = ProviderStrategy::for_endpoint(&info.agent.address, info.agent.port);
        est.score = now + strategy.priced_wait(wait) + exec;
        Ok(est)
    }
}

/// Which matchmaker a grid runs — the configuration-level token the CLI
/// and result files use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MatchmakerKind {
    /// [`FreetimeMatchmaker`] (the paper's eq. 10 ranking).
    #[default]
    Freetime,
    /// [`AuctionMatchmaker`] (provider-bid ranking).
    Auction,
}

impl MatchmakerKind {
    /// Every matchmaker, in tournament order.
    pub const ALL: [MatchmakerKind; 2] = [MatchmakerKind::Freetime, MatchmakerKind::Auction];

    /// Stable lowercase token.
    pub fn token(&self) -> &'static str {
        match self {
            MatchmakerKind::Freetime => "freetime",
            MatchmakerKind::Auction => "auction",
        }
    }

    /// Parse a token produced by [`MatchmakerKind::token`].
    pub fn parse(token: &str) -> Option<MatchmakerKind> {
        MatchmakerKind::ALL
            .iter()
            .copied()
            .find(|m| m.token() == token)
    }

    /// Instantiate the matchmaker.
    pub fn build(&self) -> std::sync::Arc<dyn Matchmaker> {
        match self {
            MatchmakerKind::Freetime => std::sync::Arc::new(FreetimeMatchmaker),
            MatchmakerKind::Auction => std::sync::Arc::new(AuctionMatchmaker),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::info::Endpoint;
    use agentgrid_pace::{AppId, Catalog, ModelCurve, ResourceModel, TabulatedModel};

    fn info(machine: &str, freetime_s: u64) -> ServiceInfo {
        ServiceInfo {
            agent: Endpoint::new("host", 1000),
            local: Endpoint::new("host", 10000),
            machine_type: machine.into(),
            nproc: 16,
            environments: vec![ExecEnv::Test, ExecEnv::Mpi].into(),
            freetime: SimTime::from_secs(freetime_s),
        }
    }

    fn sweep3d() -> ApplicationModel {
        Catalog::case_study().by_name("sweep3d").unwrap().clone()
    }

    #[test]
    fn idle_reference_resource_completes_at_best_time() {
        let engine = CachedEngine::new();
        let est = estimate(
            &info("SGIOrigin2000", 0),
            &sweep3d(),
            ExecEnv::Test,
            SimTime::from_secs(100),
            SimTime::ZERO,
            &Platform::case_study_set(),
            &engine,
        )
        .unwrap();
        // Table 1: sweep3d best time on SGI is 4 s at 15–16 procs.
        assert_eq!(est.completion, SimTime::from_secs(4));
        assert!(est.nprocs >= 15);
        assert!(est.meets_deadline);
    }

    #[test]
    fn freetime_delays_the_estimate() {
        let engine = CachedEngine::new();
        let est = estimate(
            &info("SGIOrigin2000", 50),
            &sweep3d(),
            ExecEnv::Test,
            SimTime::from_secs(30),
            SimTime::ZERO,
            &Platform::case_study_set(),
            &engine,
        )
        .unwrap();
        assert_eq!(est.completion, SimTime::from_secs(54));
        assert!(!est.meets_deadline);
    }

    #[test]
    fn stale_past_freetime_is_floored_to_now() {
        let engine = CachedEngine::new();
        let est = estimate(
            &info("SGIOrigin2000", 10),
            &sweep3d(),
            ExecEnv::Test,
            SimTime::from_secs(1000),
            SimTime::from_secs(500),
            &Platform::case_study_set(),
            &engine,
        )
        .unwrap();
        assert_eq!(est.completion, SimTime::from_secs(504));
    }

    #[test]
    fn slower_platforms_estimate_later_completion() {
        let engine = CachedEngine::new();
        let platforms = Platform::case_study_set();
        let app = sweep3d();
        let fast = estimate(
            &info("SGIOrigin2000", 0),
            &app,
            ExecEnv::Test,
            SimTime::from_secs(1000),
            SimTime::ZERO,
            &platforms,
            &engine,
        )
        .unwrap();
        let slow = estimate(
            &info("SunSPARCstation2", 0),
            &app,
            ExecEnv::Test,
            SimTime::from_secs(1000),
            SimTime::ZERO,
            &platforms,
            &engine,
        )
        .unwrap();
        assert!(slow.completion > fast.completion);
    }

    #[test]
    fn unsupported_environment_is_an_error() {
        let engine = CachedEngine::new();
        let mut i = info("SGIOrigin2000", 0);
        i.environments = vec![ExecEnv::Pvm].into();
        let err = estimate(
            &i,
            &sweep3d(),
            ExecEnv::Mpi,
            SimTime::from_secs(100),
            SimTime::ZERO,
            &Platform::case_study_set(),
            &engine,
        )
        .unwrap_err();
        assert_eq!(err, MatchError::EnvironmentUnsupported);
    }

    #[test]
    fn unknown_platform_is_an_error() {
        let engine = CachedEngine::new();
        let err = estimate(
            &info("CrayT3E", 0),
            &sweep3d(),
            ExecEnv::Test,
            SimTime::from_secs(100),
            SimTime::ZERO,
            &Platform::case_study_set(),
            &engine,
        )
        .unwrap_err();
        assert_eq!(err, MatchError::UnknownPlatform("CrayT3E".into()));
    }

    #[test]
    fn u_shaped_app_matches_at_its_optimum() {
        let engine = CachedEngine::new();
        let improc = Catalog::case_study().by_name("improc").unwrap().clone();
        let est = estimate(
            &info("SGIOrigin2000", 0),
            &improc,
            ExecEnv::Test,
            SimTime::from_secs(100),
            SimTime::ZERO,
            &Platform::case_study_set(),
            &engine,
        )
        .unwrap();
        assert_eq!(est.nprocs, 8, "improc's Table 1 optimum is 8 procs");
        assert_eq!(est.completion, SimTime::from_secs(20));
    }

    #[test]
    fn estimate_agrees_with_an_exhaustive_per_k_minimum() {
        // Oracle check of eq. 10: for every case-study application on
        // every case-study platform, recompute η_r with a plain loop over
        // k = 1..=n calls to the evaluation function and compare. The
        // reported processor count must achieve that minimum, and ties
        // must resolve to the smallest k (best_time's contract).
        let engine = CachedEngine::new();
        let platforms = Platform::case_study_set();
        let catalog = Catalog::case_study();
        let now = SimTime::from_secs(3);
        for platform in &platforms {
            for app in catalog.apps() {
                for freetime_s in [0u64, 7, 60] {
                    let i = info(platform.name.as_str(), freetime_s);
                    let est = estimate(
                        &i,
                        app,
                        ExecEnv::Test,
                        SimTime::from_secs(10_000),
                        now,
                        &platforms,
                        &engine,
                    )
                    .unwrap();
                    let model = ResourceModel::new(platform.clone(), i.nproc).unwrap();
                    let mut best_k = 1;
                    let mut best_s = f64::INFINITY;
                    for k in 1..=i.nproc {
                        let t = engine.evaluate(app, &model, k);
                        if t < best_s {
                            best_s = t;
                            best_k = k;
                        }
                    }
                    let expected = i.freetime.max(now) + SimDuration::from_secs_f64(best_s);
                    let ctx = format!("{} / {} / freetime {freetime_s}s", platform.name, app.name);
                    assert_eq!(est.completion, expected, "{ctx}");
                    assert_eq!(est.nprocs, best_k, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn freetime_matchmaker_scores_by_completion() {
        let engine = CachedEngine::new();
        let est = FreetimeMatchmaker
            .evaluate(
                &info("SGIOrigin2000", 50),
                &sweep3d(),
                ExecEnv::Test,
                SimTime::from_secs(30),
                SimTime::ZERO,
                &Platform::case_study_set(),
                &engine,
            )
            .unwrap();
        assert_eq!(est.score, est.completion);
    }

    #[test]
    fn auction_preserves_the_physical_estimate() {
        // The bid reprices only the wait component: completion, nprocs
        // and deadline feasibility must agree with eq. 10 exactly.
        let engine = CachedEngine::new();
        let platforms = Platform::case_study_set();
        for freetime_s in [0u64, 7, 60] {
            let i = info("SGIOrigin2000", freetime_s);
            let args = (
                &sweep3d(),
                ExecEnv::Test,
                SimTime::from_secs(30),
                SimTime::ZERO,
            );
            let reference =
                estimate(&i, args.0, args.1, args.2, args.3, &platforms, &engine).unwrap();
            let bid = AuctionMatchmaker
                .evaluate(&i, args.0, args.1, args.2, args.3, &platforms, &engine)
                .unwrap();
            assert_eq!(bid.completion, reference.completion);
            assert_eq!(bid.nprocs, reference.nprocs);
            assert_eq!(bid.meets_deadline, reference.meets_deadline);
        }
    }

    #[test]
    fn auction_bids_reprice_the_wait_by_strategy() {
        let engine = CachedEngine::new();
        let platforms = Platform::case_study_set();
        // Three hosts landing on the three strategies.
        let strategies: Vec<ProviderStrategy> = (0..100)
            .map(|p| ProviderStrategy::for_endpoint("host", p))
            .collect();
        for want in [
            ProviderStrategy::Aggressive,
            ProviderStrategy::Truthful,
            ProviderStrategy::Conservative,
        ] {
            let port = (0..100u16)
                .find(|p| strategies[*p as usize] == want)
                .expect("all three strategies occur within 100 ports");
            let mut i = info("SGIOrigin2000", 40);
            i.agent = Endpoint::new("host", port);
            let est = AuctionMatchmaker
                .evaluate(
                    &i,
                    &sweep3d(),
                    ExecEnv::Test,
                    SimTime::from_secs(1000),
                    SimTime::ZERO,
                    &platforms,
                    &engine,
                )
                .unwrap();
            // wait = 40 s, exec = 4 s (Table 1 best time on SGI).
            let expected_wait = match want {
                ProviderStrategy::Aggressive => 30.0,
                ProviderStrategy::Truthful => 40.0,
                ProviderStrategy::Conservative => 60.0,
            };
            assert_eq!(
                est.score,
                SimTime::ZERO + SimDuration::from_secs_f64(expected_wait + 4.0),
                "{want:?}"
            );
        }
    }

    #[test]
    fn provider_strategies_are_deterministic_and_diverse() {
        let a = ProviderStrategy::for_endpoint("A1", 1000);
        assert_eq!(a, ProviderStrategy::for_endpoint("A1", 1000));
        let mut seen = std::collections::BTreeSet::new();
        for p in 0..64u16 {
            seen.insert(format!("{:?}", ProviderStrategy::for_endpoint("host", p)));
        }
        assert_eq!(seen.len(), 3, "all three strategies occur across hosts");
    }

    #[test]
    fn matchmaker_kind_tokens_round_trip() {
        for kind in MatchmakerKind::ALL {
            assert_eq!(MatchmakerKind::parse(kind.token()), Some(kind));
            assert_eq!(kind.build().name(), kind.token());
        }
        assert_eq!(MatchmakerKind::parse("nope"), None);
    }

    #[test]
    fn tiny_nproc_is_clamped() {
        let engine = CachedEngine::new();
        let mut i = info("SGIOrigin2000", 0);
        i.nproc = 0;
        let app = ApplicationModel::new(
            AppId(7),
            "one",
            ModelCurve::Tabulated(TabulatedModel::new(vec![3.0]).unwrap()),
            (1.0, 10.0),
        )
        .unwrap();
        let est = estimate(
            &i,
            &app,
            ExecEnv::Test,
            SimTime::from_secs(10),
            SimTime::ZERO,
            &Platform::case_study_set(),
            &engine,
        )
        .unwrap();
        assert_eq!(est.nprocs, 1);
    }
}
