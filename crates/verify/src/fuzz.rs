//! The seeded simulation fuzzer with shrinking.
//!
//! [`FuzzCase::generate`] derives a random-but-reproducible scenario —
//! topology size, processor count, workload length, experiment design
//! and a crash plan — entirely from one seed. [`FuzzCase::run`] executes
//! it under an [`InvariantRecorder`] and reports the first of:
//!
//! - a **panic** anywhere in the stack (debug assertions included —
//!   `cargo test` and `cargo run` are debug builds, so the internal
//!   counter-consistency and completion-instant checks are live);
//! - an **invariant violation** from the recorder (exactly-once
//!   completion, completion instant, freetime soundness, GA legitimacy,
//!   …) — the completion-instant check is what catches a stale
//!   completion processed as real in release builds, where the
//!   scheduler's debug assertion is compiled out;
//! - a **task-accounting mismatch** (completed + rejected ≠ requested),
//!   which also catches exactly-once bugs in release builds where the
//!   debug assertions are compiled out.
//!
//! When a case fails, [`shrink`] greedily reduces it — fewer requests,
//! fewer resources, fewer processors, fewer crashes — re-running each
//! candidate and keeping it only if it still fails, until no smaller
//! failing neighbour exists. The result is printed as a ready-to-paste
//! regression test line (see [`FuzzCase::regression_line`]).
//!
//! A hard step limit guards every fuzz run: a livelocked simulation
//! panics with a clear message instead of hanging the fuzzer.

use agentgrid::{run_experiment, FaultPlan, RunOptions};
use agentgrid_cluster::ExecEnv;
use agentgrid_sim::{RngStream, SimDuration, SimTime};
use agentgrid_telemetry::{InvariantRecorder, Telemetry, Violation};
use agentgrid_workload::{ExperimentDesign, GridTopology, PolicyKind, WorkloadConfig};
use rand::Rng;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

/// Hard cap on delivered simulation events per fuzz case.
const STEP_LIMIT: u64 = 2_000_000;

/// One self-contained fuzz scenario. Every field is data, so a failing
/// case can be pasted verbatim into a regression test and replayed
/// forever.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FuzzCase {
    /// Seed for the workload, the GA and (when `crashes > 0`) the fault
    /// plan.
    pub seed: u64,
    /// Grid resources in a flat topology.
    pub resources: usize,
    /// Processors per resource.
    pub nproc: usize,
    /// Workload length (1-second interarrival).
    pub requests: usize,
    /// Crash/restart pairs in the fault plan (0 = chaos-free, checked
    /// in [`CheckMode::Strict`](agentgrid_telemetry::CheckMode)).
    pub crashes: usize,
    /// Table 2 experiment design (1 = FIFO local, 2 = GA local,
    /// 3 = GA + agents). Crashy cases always use design 3 — discovery
    /// and retry are the supported recovery path.
    pub design: u8,
    /// Test-only: disable the grid's completion-dedup protections so
    /// the fuzzer can prove it catches a real exactly-once violation.
    pub sabotage: bool,
    /// Agent-subtree shards the event loop runs over (DESIGN.md §13;
    /// 1 = plain sequential loop). Results must be invariant in this,
    /// so the fuzzer varies it like any other dimension — and shrinking
    /// tries `1` first, separating genuine scheduling bugs from
    /// merge-barrier bugs.
    pub shards: usize,
    /// Local scheduling policy for designs 2/3 (design 1 is FIFO by
    /// definition) — any zoo entrant. Shrinking tries FIFO first,
    /// separating policy-specific bugs from grid-layer bugs. Drawn
    /// last so pasted regression lines from earlier corpora stay
    /// readable prefixes.
    pub policy: PolicyKind,
}

/// Why a case failed.
#[derive(Clone, Debug)]
pub enum CaseFailure {
    /// The stack panicked (assertion, debug assertion, or livelock
    /// step-limit trip).
    Panic(String),
    /// The invariant recorder flagged the event stream.
    Violations(Vec<Violation>),
    /// Completed + rejected did not add up to the requests submitted.
    Accounting(String),
}

impl fmt::Display for CaseFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaseFailure::Panic(msg) => write!(f, "panic: {msg}"),
            CaseFailure::Violations(vs) => {
                write!(f, "{} invariant violation(s); first: {}", vs.len(), vs[0])
            }
            CaseFailure::Accounting(msg) => write!(f, "task accounting: {msg}"),
        }
    }
}

/// The result of running one case.
#[derive(Clone, Debug)]
pub struct CaseOutcome {
    /// `None` = the run upheld every invariant.
    pub failure: Option<CaseFailure>,
    /// Telemetry events the recorder checked (sanity: > 0 on any run).
    pub events: u64,
}

impl FuzzCase {
    /// Derive a scenario from `seed` alone. `quick` bounds the sizes for
    /// smoke-test budgets (CI); the same `(seed, quick)` always yields
    /// the same case.
    pub fn generate(seed: u64, quick: bool) -> FuzzCase {
        let mut rng = RngStream::root(seed).derive("verify/fuzz");
        let resources = rng.gen_range(1..=if quick { 3 } else { 4 });
        let nproc = rng.gen_range(1..=4);
        let requests = rng.gen_range(3..=if quick { 8 } else { 16 });
        // Half the corpus is chaos-free and checked strictly.
        let crashes = if rng.gen_range(0..2) == 0 {
            0
        } else {
            rng.gen_range(1..=3)
        };
        let design = if crashes > 0 {
            3
        } else {
            [1u8, 2, 3][rng.gen_range(0..3usize)]
        };
        // Drawn after the earlier dimensions so they reproduce earlier
        // corpora.
        let shards = [1usize, 2, 4][rng.gen_range(0..3usize)];
        // Drawn last (newest dimension): the local policy for designs
        // 2/3. Design 1 is FIFO by definition and draws nothing.
        let policy = if design == 1 {
            PolicyKind::Fifo
        } else {
            PolicyKind::ALL[rng.gen_range(0..PolicyKind::ALL.len())]
        };
        FuzzCase {
            seed,
            resources,
            nproc,
            requests,
            crashes,
            design,
            sabotage: false,
            shards,
            policy,
        }
    }

    /// Whether the run needs the tolerant chaos checking mode.
    fn is_chaotic(&self) -> bool {
        self.crashes > 0 || self.sabotage
    }

    /// Execute the scenario under an invariant recorder.
    pub fn run(&self) -> CaseOutcome {
        let recorder = Arc::new(if self.is_chaotic() {
            InvariantRecorder::chaos()
        } else {
            InvariantRecorder::strict()
        });
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| self.execute(&recorder)));
        let failure = match outcome {
            Err(payload) => Some(CaseFailure::Panic(panic_message(&*payload))),
            Ok(summary) => {
                if !recorder.is_clean() {
                    Some(CaseFailure::Violations(recorder.violations()))
                } else if summary.completed + summary.rejected != summary.requests {
                    Some(CaseFailure::Accounting(format!(
                        "{} completed + {} rejected != {} requested",
                        summary.completed, summary.rejected, summary.requests
                    )))
                } else {
                    None
                }
            }
        };
        CaseOutcome {
            failure,
            events: recorder.events_seen(),
        }
    }

    fn execute(&self, recorder: &Arc<InvariantRecorder>) -> RunSummary {
        let topology = GridTopology::flat(self.resources, self.nproc);
        let workload = WorkloadConfig {
            requests: self.requests,
            interarrival: SimDuration::from_secs(1),
            seed: self.seed,
            agents: topology.names(),
            environment: ExecEnv::Test,
        };
        let mut design = match self.design {
            1 => ExperimentDesign::experiment1(),
            2 => ExperimentDesign::experiment2(),
            _ => ExperimentDesign::experiment3(),
        };
        if self.design != 1 {
            design.local_policy = self.policy;
        }
        let mut opts = RunOptions::fast();
        opts.telemetry = Telemetry::new(recorder.clone());
        opts.step_limit = Some(STEP_LIMIT);
        opts.shards = self.shards.max(1);
        opts.shard_workers = Some(2);
        if self.crashes > 0 {
            // The proven recovery envelope (tests/chaos.rs): every crash
            // restarts, retries outlast outages, stale ACT entries age out.
            let horizon = SimTime::from_secs(20 + 2 * self.requests as u64);
            opts.chaos = FaultPlan::random(
                self.seed,
                &topology.names(),
                horizon,
                self.crashes,
                SimDuration::from_secs(10),
            )
            .with_act_ttl(SimDuration::from_secs(30))
            .with_dispatch_timeout(SimDuration::from_secs(2))
            .with_max_retries(24);
        }
        opts.chaos.sabotage_dedup = self.sabotage;
        let r = run_experiment(&design, &topology, &workload, &opts);
        RunSummary {
            requests: r.requests,
            completed: r.total.tasks,
            rejected: r.rejected,
        }
    }

    /// A ready-to-paste regression test line.
    pub fn regression_line(&self) -> String {
        format!("let case = {self:?}; case.assert_fails();")
    }

    /// Assert the case fails and return why (for pasted regressions).
    ///
    /// # Panics
    /// If the case runs clean.
    pub fn assert_fails(&self) -> CaseFailure {
        self.run()
            .failure
            .unwrap_or_else(|| panic!("expected {self:?} to fail, but it ran clean"))
    }

    /// Assert the case upholds every invariant.
    ///
    /// # Panics
    /// If the case fails, with the failure in the message.
    pub fn assert_clean(&self) {
        if let Some(f) = self.run().failure {
            panic!("expected {self:?} to run clean, but: {f}");
        }
    }
}

struct RunSummary {
    requests: usize,
    completed: usize,
    rejected: usize,
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Greedily minimise a failing case: try fewer requests (halving first),
/// fewer resources, fewer processors, fewer crashes; keep any candidate
/// that still fails and repeat to a fixpoint. Every candidate is a full
/// re-run, so the shrunken case is *known* to reproduce the failure.
pub fn shrink(case: FuzzCase) -> FuzzCase {
    let mut best = case;
    loop {
        let mut candidates = Vec::new();
        // Try FIFO first: if the failure survives under the simplest
        // policy it is a grid-layer bug, not a policy-specific one.
        if best.policy != PolicyKind::Fifo {
            candidates.push(FuzzCase {
                policy: PolicyKind::Fifo,
                ..best
            });
        }
        // Then the sequential loop: if the failure survives at
        // shards = 1 it is a scheduling bug, not a merge-barrier bug.
        if best.shards > 1 {
            candidates.push(FuzzCase { shards: 1, ..best });
        }
        if best.requests > 1 {
            candidates.push(FuzzCase {
                requests: best.requests / 2,
                ..best
            });
            candidates.push(FuzzCase {
                requests: best.requests - 1,
                ..best
            });
        }
        if best.resources > 1 {
            candidates.push(FuzzCase {
                resources: best.resources - 1,
                ..best
            });
        }
        if best.nproc > 1 {
            candidates.push(FuzzCase {
                nproc: best.nproc - 1,
                ..best
            });
        }
        if best.crashes > 1 {
            candidates.push(FuzzCase {
                crashes: best.crashes - 1,
                ..best
            });
        }
        candidates.dedup();
        match candidates.into_iter().find(|c| c.run().failure.is_some()) {
            Some(c) => best = c,
            None => return best,
        }
    }
}

/// One corpus failure: the original case, its shrunken form, and the
/// shrunken form's failure.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// The case as generated.
    pub case: FuzzCase,
    /// Its minimal failing neighbour.
    pub shrunk: FuzzCase,
    /// Why the shrunken case fails.
    pub failure: CaseFailure,
}

/// A whole corpus run.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Cases executed.
    pub cases: usize,
    /// Telemetry events checked across the corpus.
    pub events: u64,
    /// Failures, shrunk and replayable.
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    /// Whether the whole corpus upheld every invariant.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Run `count` generated cases starting at `start_seed`, shrinking every
/// failure. `progress` sees each case after it ran (its failure, if
/// any, before shrinking).
pub fn fuzz_corpus(
    start_seed: u64,
    count: usize,
    quick: bool,
    progress: impl FnMut(&FuzzCase, Option<&CaseFailure>),
) -> FuzzReport {
    fuzz_corpus_with(start_seed, count, quick, None, None, progress)
}

/// [`fuzz_corpus`] with every case's shard count overridden (the
/// `verify fuzz --shards N` dimension). Re-running an identical corpus
/// at different shard counts must produce identical verdicts: any
/// difference is a merge-barrier bug.
pub fn fuzz_corpus_sharded(
    start_seed: u64,
    count: usize,
    quick: bool,
    shards: Option<usize>,
    progress: impl FnMut(&FuzzCase, Option<&CaseFailure>),
) -> FuzzReport {
    fuzz_corpus_with(start_seed, count, quick, shards, None, progress)
}

/// The fully-parameterised corpus runner: optional shard and policy
/// overrides applied to every generated case (the `verify fuzz
/// --shards N` and `--policy P` dimensions). A policy override pins
/// designs 2/3 to one zoo entrant so a whole corpus can stress a single
/// policy; design-1 cases are FIFO by definition and ignore it.
pub fn fuzz_corpus_with(
    start_seed: u64,
    count: usize,
    quick: bool,
    shards: Option<usize>,
    policy: Option<PolicyKind>,
    mut progress: impl FnMut(&FuzzCase, Option<&CaseFailure>),
) -> FuzzReport {
    let mut report = FuzzReport::default();
    for seed in start_seed..start_seed + count as u64 {
        let mut case = FuzzCase::generate(seed, quick);
        if let Some(s) = shards {
            case.shards = s.max(1);
        }
        if let Some(p) = policy {
            if case.design != 1 {
                case.policy = p;
            }
        }
        let outcome = case.run();
        report.cases += 1;
        report.events += outcome.events;
        progress(&case, outcome.failure.as_ref());
        if outcome.failure.is_some() {
            let shrunk = shrink(case);
            let failure = shrunk.assert_fails();
            report.failures.push(FuzzFailure {
                case,
                shrunk,
                failure,
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_bounded() {
        for seed in 0..40 {
            let a = FuzzCase::generate(seed, true);
            assert_eq!(a, FuzzCase::generate(seed, true));
            assert!((1..=3).contains(&a.resources));
            assert!((1..=4).contains(&a.nproc));
            assert!((3..=8).contains(&a.requests));
            assert!(a.crashes <= 3);
            if a.crashes > 0 {
                assert_eq!(a.design, 3, "crashy cases use the recovery path");
            }
            assert!(!a.sabotage);
            assert!(matches!(a.shards, 1 | 2 | 4));
            if a.design == 1 {
                assert_eq!(a.policy, PolicyKind::Fifo, "design 1 is FIFO by definition");
            }
        }
        // Both strict and chaotic cases appear in the corpus, both
        // sequential and sharded loops get exercised, and the policy
        // dimension actually varies beyond FIFO/GA.
        let cases: Vec<_> = (0..40).map(|s| FuzzCase::generate(s, true)).collect();
        assert!(cases.iter().any(|c| c.crashes == 0));
        assert!(cases.iter().any(|c| c.crashes > 0));
        assert!(cases.iter().any(|c| c.shards == 1));
        assert!(cases.iter().any(|c| c.shards > 1));
        let distinct: std::collections::HashSet<_> = cases.iter().map(|c| c.policy).collect();
        assert!(
            distinct.len() >= 3,
            "expected ≥3 distinct policies in 40 cases, got {distinct:?}"
        );
    }

    #[test]
    fn policy_override_pins_planned_designs_only() {
        let mut pinned = 0;
        fuzz_corpus_with(0, 6, true, None, Some(PolicyKind::Sufferage), |c, f| {
            assert!(f.is_none(), "override corpus failed on {c:?}");
            if c.design != 1 {
                assert_eq!(c.policy, PolicyKind::Sufferage);
                pinned += 1;
            } else {
                assert_eq!(c.policy, PolicyKind::Fifo);
            }
        });
        assert!(pinned > 0, "no planned-design case in the first 6 seeds");
    }

    #[test]
    fn a_small_corpus_runs_clean() {
        let report = fuzz_corpus(0, 4, true, |_, _| {});
        assert_eq!(report.cases, 4);
        assert!(report.events > 0, "the recorder must actually see events");
        assert!(
            report.is_clean(),
            "clean corpus failed: {:?}",
            report.failures
        );
    }

    #[test]
    fn regression_line_is_pasteable() {
        let case = FuzzCase::generate(7, true);
        let line = case.regression_line();
        assert!(line.starts_with("let case = FuzzCase { seed: 7,"));
        assert!(line.ends_with("case.assert_fails();"));
    }
}
