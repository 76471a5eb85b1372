//! # cavenet-core — the CAVENET pipeline, end to end
//!
//! This crate is the public face of CAVENET-RS. It wires the two blocks of
//! the paper's architecture (Fig. 2) together:
//!
//! 1. the **Behavioural Analyzer** — the Nagel–Schreckenberg cellular
//!    automaton ([`cavenet_ca`]) embedded in the plane and exported as a
//!    mobility trace ([`cavenet_mobility`]);
//! 2. the **Communication Protocol Simulator** — the discrete-event
//!    wireless simulator ([`cavenet_net`]) running a MANET routing protocol
//!    ([`cavenet_routing`]) under CBR traffic ([`cavenet_traffic`]).
//!
//! The central types are [`Scenario`] — a declarative description of an
//! experiment, whose [`Scenario::paper_table1`] constructor reproduces the
//! paper's Table 1 exactly — and [`Experiment`], which runs a scenario and
//! returns per-sender goodput series, packet delivery ratios, delays and
//! control-overhead counters (the data behind the paper's Figs. 8–11).
//!
//! ```no_run
//! use cavenet_core::{Protocol, Scenario, Experiment};
//!
//! let scenario = Scenario::paper_table1(Protocol::Dymo);
//! let result = Experiment::new(scenario).run().unwrap();
//! for sender in 1..=8u32 {
//!     println!("sender {sender}: PDR {:.2}", result.pdr_of_sender(sender).unwrap_or(0.0));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpointing;
mod digest;
mod experiment;
mod mobility_adapter;
mod protocol;
mod resilience;
mod scenario;

pub use checkpointing::{
    scenario_identity, Campaign, CheckpointError, CheckpointPlan, Engine, Lineage,
};
pub use digest::{digest_scenario, RunDigest};
pub use experiment::{Experiment, ExperimentResult, SenderReport};
pub use mobility_adapter::TraceMobility;
pub use protocol::Protocol;
pub use resilience::{
    burst_plan, churn_plan, time_to_reroute, Resilience, ResilienceOutcome, ResilienceSummary,
};
pub use scenario::{MobilitySource, Scenario, ScenarioError, TrafficPattern};

// The fidelity knob and its backends live in `cavenet-net`; surface them
// here so scenario authors select a backend without extra dependencies.
pub use cavenet_net::Fidelity;

// Re-export the sub-crates so downstream users need a single dependency.
pub use cavenet_ca as ca;
pub use cavenet_checkpoint as checkpoint;
pub use cavenet_fluid as fluid;
pub use cavenet_mobility as mobility;
pub use cavenet_net as net;
pub use cavenet_routing as routing;
pub use cavenet_stats as stats;
pub use cavenet_traffic as traffic;
