//! The fuzzer must catch a *real* bug, not just bless clean runs.
//!
//! `FaultPlan::sabotage_dedup` (test-only) disables both grid-level
//! exactly-once protections — the stale-completion guard and the
//! completion-dedup set — recreating exactly the bug they exist to
//! prevent: a completion event scheduled for a pre-crash incarnation of
//! a task is processed as if it were real. The fuzzer must notice (via
//! a debug assertion panic in debug builds, or the invariant checker's
//! completion-instant violation in release) and shrink the scenario to a
//! tiny reproducible case — in both profiles.

use agentgrid_verify::fuzz::{shrink, FuzzCase};
use agentgrid_workload::PolicyKind;

#[test]
fn injected_dedup_bug_is_caught_and_shrunk_to_a_tiny_case() {
    let case = FuzzCase {
        seed: 0,
        resources: 3,
        nproc: 4,
        requests: 12,
        crashes: 2,
        design: 3,
        sabotage: true,
        shards: 2,
        policy: PolicyKind::Ga,
    };

    // Caught: the sabotaged run fails...
    let failure = case.assert_fails();
    // ...while the identical scenario with the protections in place is
    // clean, so it really is the dedup removal that the fuzzer caught.
    FuzzCase {
        sabotage: false,
        ..case
    }
    .assert_clean();

    // Shrunk: to at most 3 resources / 5 tasks (in practice all the
    // way down to one of each), and the shrunken case still fails.
    let shrunk = shrink(case);
    assert!(
        shrunk.resources <= 3,
        "shrunk to {} resources: {shrunk:?} (original failure: {failure})",
        shrunk.resources
    );
    assert!(
        shrunk.requests <= 5,
        "shrunk to {} requests: {shrunk:?} (original failure: {failure})",
        shrunk.requests
    );
    assert!(shrunk.sabotage, "shrinking never flips the sabotage flag");
    let shrunk_failure = shrunk.assert_fails();
    // The regression line replays on its own.
    let line = shrunk.regression_line();
    assert!(
        line.contains("sabotage: true") && line.ends_with("case.assert_fails();"),
        "unexpected regression line: {line} ({shrunk_failure})"
    );
}
