//! The straight-run digest: one scenario, run once, fingerprinted.
//!
//! A [`GoldenDigest`] folded over a whole run plus its final statistics is
//! the reference every equivalence in the workspace is checked against:
//! the committed golden fixtures, resume from a checkpoint, and trials
//! completed under the campaign supervisor.

use cavenet_net::GoldenDigest;

use crate::{Experiment, ExperimentResult, Scenario};

/// Outcome of digesting one scenario run.
#[derive(Debug, Clone)]
pub struct RunDigest {
    /// Digest of the full event stream plus final statistics.
    pub digest: u64,
    /// Engine events dispatched.
    pub events: u64,
    /// The experiment's metrics, for additional assertions.
    pub result: ExperimentResult,
}

/// Run `scenario` with a [`GoldenDigest`] attached and
/// [`finalize`](GoldenDigest::finalize) it.
///
/// # Panics
///
/// Panics if the scenario fails validation or cannot build its mobility.
pub fn digest_scenario(scenario: &Scenario) -> RunDigest {
    let (result, sim) = Experiment::new(scenario.clone())
        .run_with_observer(GoldenDigest::new())
        .expect("scenario must run");
    let (digest, events) = sim.observer().finalize(&sim);
    RunDigest {
        digest,
        events,
        result,
    }
}
