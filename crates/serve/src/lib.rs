//! `agentgrid serve` — the grid as a long-running service.
//!
//! The batch experiment driver answers "what did this workload do?";
//! this crate answers "what is the grid doing *right now*?". It wraps
//! one [`GridSystem`](agentgrid::GridSystem) +
//! [`Simulation`](agentgrid_sim::Simulation) pair in a service loop
//! with:
//!
//! * **live ingestion** — JSONL request lines from stdin or a std-only
//!   TCP listener become portal requests injected into the running
//!   simulation ([`stream`]), admitted through a bounded fair queue
//!   with explicit 429 backpressure ([`admission`]);
//! * **pacing** — real-time driving under a configurable time-dilation
//!   factor, or fast-forward batch equivalence ([`service`]);
//! * **durability** — a std-only write-ahead log appends every accepted
//!   line before it applies; a restarted service replays the log
//!   through the ordinary ingestion path and resumes bit-identical to
//!   an uninterrupted run ([`wal`]);
//! * **elasticity** — scripted or ingested scale-up/down directives,
//!   generalising the chaos crash/restart machinery into planned,
//!   graceful resource joins and leaves;
//! * **observability** — a Prometheus `/metrics` exposition and a live
//!   ε/ῡ/β status line ([`http`]);
//! * **self-tuning** — an optional monitoring → analysis → tuning loop
//!   that adapts the GA budget, pull period and ACT TTL under load,
//!   with every adjustment on the telemetry record ([`tuner`]).

pub mod admission;
pub mod http;
pub mod service;
pub mod stream;
pub mod tuner;
pub mod wal;

pub use admission::{AdmissionQueue, AdmitError};
pub use http::{spawn_listener, ServeShared};
pub use service::{
    GridService, LiveStatus, PacedOptions, ServeConfig, ServeReport, WalSummary,
    DEFAULT_ADMISSION_CAPACITY,
};
pub use stream::{
    canonical_line, parse_line, parse_stream, read_recording, stamp, write_meta, write_request,
    write_scale, write_stream, RecordMeta, ServeLine,
};
pub use tuner::{Tuner, TunerConfig};
pub use wal::{read_wal, SyncPolicy, WalConfig, WalRecord, WalRecovery, WalWriter};

/// Lock a mutex shared between the sim loop and the listener, taking
/// the guard even if the other thread panicked while holding it: the
/// state behind these locks (queued lines, rendered snapshots) is valid
/// after every single assignment, so one thread's panic must not
/// cascade into the other mid-response.
pub(crate) fn lock_tolerant<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
