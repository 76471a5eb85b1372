//! CAVENET-RS campaign service: supervised, fault-tolerant trial execution.
//!
//! Batch sweeps ([`Campaign::run_resumable`](cavenet_core::Campaign))
//! assume every trial is well-behaved; a long chaos or soak campaign
//! cannot. This crate runs trials under supervision instead:
//!
//! * **Isolation** — each attempt runs under `catch_unwind`; a panicking
//!   protocol stack takes down one attempt, not the campaign, and the
//!   payload is captured into a typed [`TrialFailure`].
//! * **Retry with deterministic backoff** — failed trials re-queue after a
//!   [`BackoffPolicy`] delay that is a pure function of the campaign seed,
//!   the trial key and the attempt number; retries resume from the
//!   trial's newest on-disk checkpoint, not from zero.
//! * **Watchdogs** — every trial beats a
//!   [`ProgressHandle`](cavenet_net::ProgressHandle): an exact trial from
//!   its [`StreamProbe`](cavenet_telemetry::StreamProbe) every
//!   [`ServerConfig::snapshot_stride`] events, and every trial at each
//!   checkpoint slice end. A heartbeat that stops advancing past the
//!   stall timeout gets the trial cancelled and retried, and one that
//!   ignores cancellation past a grace period is abandoned as
//!   [`TrialFailure::Lost`].
//! * **Poison quarantine** — a trial that fails three times is
//!   quarantined with its full failure history rather than retried
//!   forever.
//! * **Admission control and graceful shutdown** — a bounded queue and a
//!   node budget shed load with typed [`AdmissionError`]s; shutdown
//!   checkpoints in-flight trials and writes a resumable
//!   [`CampaignLedger`].
//!
//! Supervision never compromises determinism: surviving trials produce
//! event-stream digests bit-identical to unsupervised straight runs, and
//! every recovery decision (backoff, chaos injection) derives from seeds.
//!
//! * **Live observability** — the supervisor records its own health
//!   (queue depth, sheds, retries, stalls, write-offs, quarantines,
//!   worker state) into typed [`ServerMetrics`] slots; configure a
//!   [`SnapshotBus`](cavenet_telemetry::SnapshotBus) on
//!   [`ServerConfig::bus`] and in-flight trials stream registry
//!   snapshots onto it while the watchdog publishes the supervisor's —
//!   all digest-invisible, and pollable mid-campaign via
//!   [`CampaignServer::status`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod backoff;
mod chaos;
mod failure;
mod ledger;
mod metrics;
mod supervisor;

pub use admission::AdmissionError;
pub use backoff::BackoffPolicy;
pub use chaos::{ChaosEntry, ChaosKind, ChaosObserver, ChaosPlan};
pub use failure::{TrialAttempt, TrialFailure};
pub use ledger::{CampaignLedger, TrialKey, TrialState, LEDGER_SCHEMA_VERSION};
pub use metrics::ServerMetrics;
pub use supervisor::{
    CampaignReport, CampaignServer, ServerConfig, ServerStatus, TrialId, TrialOutcome,
    TrialProgress, TrialReport,
};
