//! # cavenet-testkit — conformance checking for the CAVENET engine
//!
//! This crate builds three testing instruments on top of the zero-cost
//! [`SimObserver`](cavenet_net::SimObserver) hooks exposed by `cavenet-net`:
//!
//! * [`InvariantChecker`] — an observer that validates engine invariants
//!   while a simulation runs: the virtual clock never goes backwards, every
//!   dispatched event has a unique sequence number, MAC state machines only
//!   take legal transitions, and every originated data packet ends in
//!   exactly one first fate (delivered or dropped) — the packet-conservation
//!   ledger.
//! * [`GoldenDigest`] — an observer that folds the complete observed event
//!   stream (plus final statistics) into a stable 64-bit FNV-1a digest.
//!   Committed digests under `tests/golden/` turn the whole engine into a
//!   regression test: any behavioural change, however small, flips the
//!   digest.
//! * [`assert_equiv`] — a differential harness that runs one scenario under
//!   two configurations that must be behaviourally identical (neighbor grid
//!   on/off, quantized vs. exact mobility at the same quantum, …) and
//!   compares their digests.
//!
//! Fixtures are regenerated with `UPDATE_GOLDEN=1 cargo test -p
//! cavenet-testkit`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bisect;
mod diff;
mod digest;
mod golden;
mod invariants;
mod jam;
mod tee;

pub use bisect::bisect_divergence;
pub use diff::{assert_equiv, assert_identity_semantics, digest_scenario, RunDigest};
pub use digest::GoldenDigest;
pub use golden::{check_golden, golden_path, load_golden, store_golden, Golden};
pub use invariants::{InvariantChecker, LedgerReport};
pub use jam::{jam_ring_scenario, JAM_CREEP_MPS, JAM_HEADWAY_M, JAM_SIM_SECS};
pub use tee::Tee;
