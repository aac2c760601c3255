//! Online invariant checking over the event stream.
//!
//! [`InvariantRecorder`] is a [`Recorder`] sink that validates the
//! system's behavioural contracts *while the run happens* instead of
//! inspecting results afterwards. It can be attached to any test,
//! bench, or `agentgrid run --verify` invocation; the verify crate's
//! fuzzer drives whole random simulations under it.
//!
//! Checked invariants:
//!
//! - **Exactly-once completion** — a task id finishes at most once,
//!   even when chaos crashes lose and resubmit it (the dedup set and
//!   the stale-completion guard in the grid exist to uphold this).
//! - **Completion instant** — a running task finishes at the completion
//!   it announced when it started. A scheduler that is handed a
//!   completion at any other instant reports an
//!   [`Event::CompletionMisfire`], which is always a violation; this is
//!   the release-build counterpart of the scheduler's debug assertion.
//! - **Causal ordering** — a task never starts more often than it was
//!   submitted and never finishes more often than it started; in
//!   [`CheckMode::Strict`] (chaos-free) streams each happens at most
//!   once and nothing follows a finish.
//! - **Freetime soundness** — every [`Event::FreetimeSample`] advertises
//!   a freetime at or past both the sampling instant and the committed
//!   ledger makespan, and the committed makespan itself is monotone
//!   per resource between crash boundaries (an
//!   [`Event::AgentDown`]/[`Event::AgentUp`] truncates the ledger, so
//!   the floor resets there).
//! - **Horizon consistency** — [`Event::EngineHorizon`] never reports a
//!   horizon earlier than the latest completion seen.
//! - **GA legitimacy** — every [`Event::GaSolutionCheck`] carries
//!   `legit: true`: the committed solution's ordering is a permutation
//!   and every node mask is non-empty.
//!
//! An [`Event::EngineHorizon`] also marks the end of one experiment
//! run; per-run state (task counters, ledger floors) resets there so a
//! single recorder can check a multi-run stream such as `run_table3`,
//! where the three experiments reuse the same task ids.

use crate::event::{Event, Micros};
use crate::recorder::Recorder;
use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;

/// How tolerant the checker is of fault-injection artefacts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckMode {
    /// Chaos-free stream: at most one submit/start/finish per task, no
    /// fault events at all. Any [`Event::AgentDown`],
    /// [`Event::TaskRecovered`] or similar is itself a violation.
    Strict,
    /// Fault-injected stream: crashes may lose and resubmit tasks, so
    /// submit/start counts can grow — but completion stays
    /// exactly-once and every sample stays sound.
    Chaos,
}

/// One observed contract breach.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// Simulated instant of the offending event, microseconds.
    pub t: Micros,
    /// Stable name of the broken invariant (e.g.
    /// `exactly-once-completion`).
    pub invariant: &'static str,
    /// Human-readable specifics: ids, counters, the numbers involved.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[t={}us] {}: {}", self.t, self.invariant, self.detail)
    }
}

/// Stored violations are capped so a catastrophically broken run cannot
/// exhaust memory; the overflow is counted instead.
const MAX_VIOLATIONS: usize = 256;

#[derive(Default)]
struct TaskCounters {
    submits: u32,
    starts: u32,
    finishes: u32,
}

#[derive(Default)]
struct CheckState {
    tasks: HashMap<u64, TaskCounters>,
    /// Per-resource floor for the committed ledger makespan.
    committed_floor: HashMap<String, Micros>,
    max_finish_t: Micros,
    events: u64,
    violations: Vec<Violation>,
    suppressed: u64,
}

/// A [`Recorder`] that checks invariants live instead of storing
/// events. See the [module docs](self) for the contract list.
pub struct InvariantRecorder {
    mode: CheckMode,
    state: Mutex<CheckState>,
}

impl InvariantRecorder {
    /// A checker for the given mode.
    pub fn new(mode: CheckMode) -> InvariantRecorder {
        InvariantRecorder {
            mode,
            state: Mutex::new(CheckState::default()),
        }
    }

    /// A checker for chaos-free runs ([`CheckMode::Strict`]).
    pub fn strict() -> InvariantRecorder {
        InvariantRecorder::new(CheckMode::Strict)
    }

    /// A checker for fault-injected runs ([`CheckMode::Chaos`]).
    pub fn chaos() -> InvariantRecorder {
        InvariantRecorder::new(CheckMode::Chaos)
    }

    /// The mode this checker runs in.
    pub fn mode(&self) -> CheckMode {
        self.mode
    }

    /// Every violation seen so far (storage is capped; see
    /// [`InvariantRecorder::suppressed`]).
    pub fn violations(&self) -> Vec<Violation> {
        self.state.lock().unwrap().violations.clone()
    }

    /// Violations beyond the storage cap (counted, not stored).
    pub fn suppressed(&self) -> u64 {
        self.state.lock().unwrap().suppressed
    }

    /// Whether no invariant has been violated.
    pub fn is_clean(&self) -> bool {
        let s = self.state.lock().unwrap();
        s.violations.is_empty() && s.suppressed == 0
    }

    /// Events observed so far (cheap sanity check that the recorder was
    /// actually attached).
    pub fn events_seen(&self) -> u64 {
        self.state.lock().unwrap().events
    }

    /// A multi-line human-readable report: one line per violation, or
    /// a clean bill of health.
    pub fn report(&self) -> String {
        let s = self.state.lock().unwrap();
        if s.violations.is_empty() && s.suppressed == 0 {
            return format!("invariants: clean ({} events checked)", s.events);
        }
        let mut out = format!(
            "invariants: {} violation(s) over {} events\n",
            s.violations.len() as u64 + s.suppressed,
            s.events
        );
        for v in &s.violations {
            out.push_str(&format!("  {v}\n"));
        }
        if s.suppressed > 0 {
            out.push_str(&format!("  ... and {} more (suppressed)\n", s.suppressed));
        }
        out
    }
}

fn push(state: &mut CheckState, t: Micros, invariant: &'static str, detail: String) {
    if state.violations.len() < MAX_VIOLATIONS {
        state.violations.push(Violation {
            t,
            invariant,
            detail,
        });
    } else {
        state.suppressed += 1;
    }
}

impl Recorder for InvariantRecorder {
    fn record(&self, t: Micros, event: Event) {
        let strict = self.mode == CheckMode::Strict;
        let s = &mut *self.state.lock().unwrap();
        s.events += 1;
        match event {
            Event::TaskSubmit { task, .. } => {
                let c = s.tasks.entry(task).or_default();
                c.submits += 1;
                let (submits, finishes) = (c.submits, c.finishes);
                if strict && submits > 1 {
                    push(
                        s,
                        t,
                        "single-submit",
                        format!("task {task} submitted {submits} times in a chaos-free run"),
                    );
                }
                if finishes > 0 {
                    // Even under chaos a finished task must never be
                    // resubmitted: completion is settled state.
                    push(
                        s,
                        t,
                        "submit-after-finish",
                        format!("task {task} resubmitted after completing"),
                    );
                }
            }
            Event::TaskStart { task, .. } => {
                let c = s.tasks.entry(task).or_default();
                let before = *c;
                c.starts += 1;
                if before.starts >= before.submits {
                    push(
                        s,
                        t,
                        "start-before-submit",
                        format!(
                            "task {task} started with {} start(s) against {} submit(s)",
                            before.starts, before.submits
                        ),
                    );
                }
                if strict && before.starts > 0 {
                    push(
                        s,
                        t,
                        "single-start",
                        format!("task {task} started twice in a chaos-free run"),
                    );
                }
                if before.finishes > 0 {
                    push(
                        s,
                        t,
                        "start-after-finish",
                        format!("task {task} started again after completing"),
                    );
                }
            }
            Event::TaskFinish { task, .. } => {
                let c = s.tasks.entry(task).or_default();
                let before = *c;
                c.finishes += 1;
                if before.finishes >= 1 {
                    push(
                        s,
                        t,
                        "exactly-once-completion",
                        format!("task {task} completed {} times", before.finishes + 1),
                    );
                } else if before.finishes >= before.starts {
                    push(
                        s,
                        t,
                        "finish-without-start",
                        format!(
                            "task {task} finished with {} start(s) on record",
                            before.starts
                        ),
                    );
                }
                s.max_finish_t = s.max_finish_t.max(t);
            }
            Event::CompletionMisfire {
                task,
                resource,
                announced,
            } => {
                push(
                    s,
                    t,
                    "completion-instant",
                    format!(
                        "task {task} on {resource} completed at {t}us, \
                         not at its announced {announced}us"
                    ),
                );
            }
            Event::TaskDeadlineMiss { task, .. } => {
                let finishes = s.tasks.get(&task).map_or(0, |c| c.finishes);
                if finishes == 0 {
                    push(
                        s,
                        t,
                        "miss-without-finish",
                        format!("task {task} reported late without a completion"),
                    );
                }
            }
            Event::FreetimeSample {
                resource,
                freetime,
                committed,
            } => {
                if freetime < t {
                    push(
                        s,
                        t,
                        "freetime-behind-clock",
                        format!("{resource} advertised freetime {freetime}us before now"),
                    );
                }
                if freetime < committed {
                    push(
                        s,
                        t,
                        "freetime-below-ledger",
                        format!(
                            "{resource} advertised freetime {freetime}us below the \
                             committed makespan {committed}us"
                        ),
                    );
                }
                match s.committed_floor.get(&resource) {
                    Some(&floor) if committed < floor => {
                        push(
                            s,
                            t,
                            "ledger-went-backwards",
                            format!(
                                "{resource} committed makespan fell {floor}us -> \
                                 {committed}us without a crash"
                            ),
                        );
                    }
                    _ => {}
                }
                s.committed_floor.insert(resource, committed);
            }
            Event::AgentDown { ref resource } | Event::AgentUp { ref resource } => {
                // A crash truncates the ledger (running allocations are
                // aborted), so the monotonicity floor resets here.
                s.committed_floor.remove(resource);
                if strict {
                    push(
                        s,
                        t,
                        "chaos-in-strict",
                        format!("{} event in a chaos-free stream", event.kind()),
                    );
                }
            }
            Event::MsgDropped { .. }
            | Event::TaskRecovered { .. }
            | Event::RetryExhausted { .. }
            | Event::ScaleDirective { .. }
                if strict =>
            {
                push(
                    s,
                    t,
                    "chaos-in-strict",
                    format!("{} event in a chaos-free stream", event.kind()),
                );
            }
            Event::GaSolutionCheck {
                resource,
                tasks,
                legit: false,
            } => {
                push(
                    s,
                    t,
                    "ga-solution-legitimacy",
                    format!("{resource} committed an illegitimate solution over {tasks} task(s)"),
                );
            }
            Event::EngineHorizon { horizon } => {
                if horizon < s.max_finish_t {
                    push(
                        s,
                        t,
                        "horizon-behind-completions",
                        format!(
                            "horizon {horizon}us precedes the latest completion at {}us",
                            s.max_finish_t
                        ),
                    );
                }
                // End-of-run boundary: the next experiment in a
                // multi-run stream reuses task ids and restarts the
                // clock, so per-run state resets here.
                s.tasks.clear();
                s.committed_floor.clear();
                s.max_finish_t = 0;
            }
            _ => {}
        }
    }
}

impl Clone for TaskCounters {
    fn clone(&self) -> Self {
        *self
    }
}

impl Copy for TaskCounters {}

#[cfg(test)]
mod tests {
    use super::*;

    fn submit(task: u64) -> Event {
        Event::TaskSubmit {
            task,
            resource: "S1".into(),
            deadline: 60_000_000,
        }
    }

    fn start(task: u64) -> Event {
        Event::TaskStart {
            task,
            resource: "S1".into(),
            nodes: 2,
            queue_wait: 0,
        }
    }

    fn finish(task: u64) -> Event {
        Event::TaskFinish {
            task,
            resource: "S1".into(),
            deadline_met: true,
        }
    }

    fn names(rec: &InvariantRecorder) -> Vec<&'static str> {
        rec.violations().iter().map(|v| v.invariant).collect()
    }

    #[test]
    fn clean_lifecycle_is_clean_in_both_modes() {
        for rec in [InvariantRecorder::strict(), InvariantRecorder::chaos()] {
            rec.record(0, submit(1));
            rec.record(1, start(1));
            rec.record(5, finish(1));
            assert!(rec.is_clean(), "{}", rec.report());
            assert_eq!(rec.events_seen(), 3);
        }
    }

    #[test]
    fn duplicate_completion_caught_in_both_modes() {
        for rec in [InvariantRecorder::strict(), InvariantRecorder::chaos()] {
            rec.record(0, submit(1));
            rec.record(1, start(1));
            rec.record(5, finish(1));
            rec.record(6, finish(1));
            assert!(names(&rec).contains(&"exactly-once-completion"));
        }
    }

    #[test]
    fn completion_misfire_caught_in_both_modes() {
        for rec in [InvariantRecorder::strict(), InvariantRecorder::chaos()] {
            rec.record(0, submit(1));
            rec.record(1, start(1));
            rec.record(
                3,
                Event::CompletionMisfire {
                    task: 1,
                    resource: "S1".into(),
                    announced: 5,
                },
            );
            rec.record(3, finish(1));
            assert_eq!(names(&rec), vec!["completion-instant"]);
        }
    }

    #[test]
    fn start_before_submit_caught() {
        let rec = InvariantRecorder::chaos();
        rec.record(0, start(7));
        assert_eq!(names(&rec), vec!["start-before-submit"]);
    }

    #[test]
    fn resubmission_allowed_only_under_chaos() {
        let strict = InvariantRecorder::strict();
        let chaos = InvariantRecorder::chaos();
        for rec in [&strict, &chaos] {
            rec.record(0, submit(1));
            rec.record(1, start(1));
            // Crash loses the task; the grid resubmits it.
            rec.record(2, submit(1));
            rec.record(3, start(1));
            rec.record(9, finish(1));
        }
        assert_eq!(names(&strict), vec!["single-submit", "single-start"]);
        assert!(chaos.is_clean(), "{}", chaos.report());
    }

    #[test]
    fn fault_events_flag_strict_mode() {
        let rec = InvariantRecorder::strict();
        rec.record(
            3,
            Event::AgentDown {
                resource: "S2".into(),
            },
        );
        assert_eq!(names(&rec), vec!["chaos-in-strict"]);
    }

    #[test]
    fn freetime_sample_soundness() {
        let rec = InvariantRecorder::strict();
        // Sound: freetime at now, ledger behind it.
        rec.record(
            10,
            Event::FreetimeSample {
                resource: "S1".into(),
                freetime: 10,
                committed: 5,
            },
        );
        assert!(rec.is_clean());
        // Freetime behind the clock and below the ledger.
        rec.record(
            20,
            Event::FreetimeSample {
                resource: "S1".into(),
                freetime: 15,
                committed: 30,
            },
        );
        let got = names(&rec);
        assert!(got.contains(&"freetime-behind-clock"));
        assert!(got.contains(&"freetime-below-ledger"));
    }

    #[test]
    fn ledger_monotone_with_crash_reset() {
        let sample = |freetime, committed| Event::FreetimeSample {
            resource: "S1".into(),
            freetime,
            committed,
        };
        let rec = InvariantRecorder::chaos();
        rec.record(0, sample(50, 50));
        rec.record(1, sample(40, 40));
        assert_eq!(names(&rec), vec!["ledger-went-backwards"]);

        let rec = InvariantRecorder::chaos();
        rec.record(0, sample(50, 50));
        rec.record(
            1,
            Event::AgentDown {
                resource: "S1".into(),
            },
        );
        // The crash truncated the ledger: a lower committed value is fine.
        rec.record(2, sample(40, 40));
        assert!(rec.is_clean(), "{}", rec.report());
    }

    #[test]
    fn illegitimate_ga_solution_caught() {
        let rec = InvariantRecorder::strict();
        rec.record(
            0,
            Event::GaSolutionCheck {
                resource: "S1".into(),
                tasks: 4,
                legit: false,
            },
        );
        assert_eq!(names(&rec), vec!["ga-solution-legitimacy"]);
    }

    #[test]
    fn horizon_must_cover_completions() {
        let rec = InvariantRecorder::strict();
        rec.record(0, submit(1));
        rec.record(1, start(1));
        rec.record(90, finish(1));
        rec.record(90, Event::EngineHorizon { horizon: 50 });
        assert_eq!(names(&rec), vec!["horizon-behind-completions"]);
    }

    #[test]
    fn engine_horizon_resets_per_run_state() {
        let rec = InvariantRecorder::strict();
        rec.record(0, submit(1));
        rec.record(1, start(1));
        rec.record(9, finish(1));
        rec.record(9, Event::EngineHorizon { horizon: 9 });
        // Next experiment in the same stream reuses task id 1 and an
        // earlier clock; neither is a violation across the boundary.
        rec.record(0, submit(1));
        rec.record(1, start(1));
        rec.record(5, finish(1));
        rec.record(5, Event::EngineHorizon { horizon: 5 });
        assert!(rec.is_clean(), "{}", rec.report());
    }

    #[test]
    fn violation_storage_is_capped() {
        let rec = InvariantRecorder::chaos();
        for i in 0..(MAX_VIOLATIONS as u64 + 10) {
            rec.record(i, start(i)); // every one is start-before-submit
        }
        assert_eq!(rec.violations().len(), MAX_VIOLATIONS);
        assert_eq!(rec.suppressed(), 10);
        assert!(!rec.is_clean());
        assert!(rec.report().contains("more (suppressed)"));
    }
}
