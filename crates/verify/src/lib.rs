//! # agentgrid-verify
//!
//! Verification harness for the agentgrid stack: model-based oracles,
//! online invariant checking, and a shrinking simulation fuzzer.
//!
//! The rest of the workspace asserts what the *implementation* does;
//! this crate asserts what the *model* says it should do, by
//! independent means:
//!
//! - [`oracle`] — brute-force reference schedulers for tiny instances.
//!   [`oracle::brute_force_best`] enumerates every ordering × node-mask
//!   assignment, bounding the GA's cost from below;
//!   [`oracle::fifo_reference`] rebuilds the arrival-order greedy
//!   schedule, bounding it from above (the GA seeds its population with
//!   exactly that schedule); [`oracle::matchmaking_reference`]
//!   re-derives eq. 10's completion estimate.
//! - [`invariant`] — the online checker. [`InvariantRecorder`] is a
//!   telemetry sink validating event streams live: exactly-once
//!   completion (even under chaos), causal submit→start→finish order,
//!   freetime/ledger soundness, horizon consistency and GA solution
//!   legitimacy. It lives in `agentgrid-telemetry` (re-exported here)
//!   so the `agentgrid run --verify` CLI can attach it without a
//!   dependency cycle.
//! - [`fuzz`] — seeded random topologies × workloads × fault plans run
//!   under the checker, with greedy shrinking to a minimal replayable
//!   case printed as a ready-to-paste regression test.
//! - [`serve_fuzz`] — the serve-mode sibling: random JSONL request
//!   streams plus elasticity directives pushed through the live
//!   injection path (`verify fuzz --serve`).
//! - [`crash`] — kill-at-random-point durability fuzzing: a served
//!   session with a write-ahead log is killed mid-stream (optionally
//!   with a torn log tail), recovered, and required to finish
//!   bit-identical to an uninterrupted run (`verify fuzz --crash`).
//!
//! The `verify` binary drives the fuzzer from the command line:
//! `cargo run --bin verify -- fuzz --seeds 100 --quick`.

#![warn(missing_docs)]

pub mod crash;
pub mod fuzz;
pub mod oracle;
pub mod serve_fuzz;
pub mod zoo;

/// The online invariant checker (re-exported from
/// `agentgrid-telemetry`, where it lives so every layer — including the
/// `agentgrid` CLI — can attach it).
pub mod invariant {
    pub use agentgrid_telemetry::invariant::{CheckMode, InvariantRecorder, Violation};
}

pub use crash::{crash_corpus, shrink_crash, CrashCase, CrashFailure, CrashReport};
pub use fuzz::{
    fuzz_corpus, fuzz_corpus_sharded, shrink, shrink_with, CaseFailure, CaseOutcome, FuzzCase,
    FuzzFailure, FuzzReport, GaShape,
};
pub use invariant::{CheckMode, InvariantRecorder, Violation};
pub use oracle::{
    brute_force_best, cost_of, fifo_reference, matchmaking_reference, OracleSchedule,
};
pub use serve_fuzz::{
    serve_fuzz_corpus, shrink_serve, ServeFuzzCase, ServeFuzzFailure, ServeFuzzReport,
};
pub use zoo::{diff_ga_config, diff_instance, planned_zoo, DiffInstance};
