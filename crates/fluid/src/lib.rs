//! # cavenet-fluid — a flow-level fluid backend for CAVENET scenarios
//!
//! The exact engine (`cavenet-net`) plays every frame of 802.11 DCF out
//! event by event; at 10k+ nodes that costs seconds of wall time per
//! simulated second. This crate is the *fluid* fidelity behind the
//! [`ChannelBackend`]/[`MacBackend`] seam: a deterministic, time-stepped,
//! flow-level model that answers the same experiment questions (per-flow
//! PDR, goodput series, delay) 100–1000x faster, at the price of a bounded
//! approximation error. The per-class tolerance table in
//! `tests/conformance.rs` prices that error against the exact engine.
//!
//! ## The model
//!
//! Time advances in coarse steps (default 1 s). At each step the engine:
//!
//! 1. samples every node's position from the shared [`MobilityTrace`] at
//!    the step midpoint — the *same* trace the exact engine drives, so the
//!    seed enters the fluid model exactly once, through mobility;
//! 2. bins nodes into a square grid of cell size `rx_range / 2` — the
//!    fluid discretization of the exact engine's neighbor grid. Two
//!    occupied cells whose centers lie within `rx_range` are link-adjacent;
//!    cells within the carrier-sense cutoff contend;
//! 3. lays *offered airtime load* onto cells: periodic routing control
//!    traffic everywhere, data traffic along each flow's cell path (found
//!    by deterministic BFS over occupied cells);
//! 4. computes per-cell channel utilization `U` as the load integral over
//!    the carrier-sense neighborhood, and maps it to a conditional
//!    collision probability `p ≈ min(U, cap)` — the *unsaturated* regime
//!    closure (Table-1 CBR loads sit far below Bianchi saturation; the
//!    saturation fixed point remains available on [`MacBackend`] for
//!    saturated analyses);
//! 5. closes each flow analytically with the [`MacBackend`] provided
//!    methods: per-hop delivery within the retry budget, per-hop service
//!    time, and a `1/U` capacity clip when a neighborhood is overloaded.
//!
//! Packet emissions are counted *exactly* (integer CBR arithmetic on the
//! same nanosecond grid the exact engine uses); deliveries accumulate as
//! fractional expectations and round once at report time. There is no RNG
//! anywhere in the model: two runs over the same trace are bit-identical,
//! and the running FNV digest ([`FluidEngine::digest`]) is the proof.
//!
//! ## Checkpointing
//!
//! [`FluidEngine::capture`]/[`FluidEngine::restore`] serialize the full
//! dynamic state (step counter, per-flow accumulators, digest) through the
//! same `WireWriter` vocabulary the exact engine's snapshot sections use;
//! `cavenet-core` wraps them in a dedicated snapshot section so fluid runs
//! participate in the checkpoint/resume/campaign machinery. Resume
//! granularity is the step boundary.
//!
//! [`ChannelBackend`]: cavenet_net::ChannelBackend
//! [`MacBackend`]: cavenet_net::MacBackend
//! [`MobilityTrace`]: cavenet_mobility::MobilityTrace

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod field;

pub use engine::{FluidEngine, FluidFlowReport, FluidReport};
pub use field::Field;

use std::time::Duration;

use cavenet_mobility::MobilityError;
use cavenet_net::ExactBackend;
use cavenet_traffic::CbrConfig;

/// One CBR flow for the fluid model: source, destination and the same
/// [`CbrConfig`] the exact engine's `CbrSource` application runs.
#[derive(Debug, Clone, PartialEq)]
pub struct FluidFlow {
    /// Source node id.
    pub src: u32,
    /// Destination node id.
    pub dst: u32,
    /// Emission schedule and packet size.
    pub cbr: CbrConfig,
}

/// How data packets travel: the fluid abstraction of the routing protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteDiscipline {
    /// Unicast along the shortest cell path (AODV/OLSR/DYMO/DSDV class):
    /// per-hop ACK + retry, delivery is the product of per-hop retry-budget
    /// probabilities.
    Unicast,
    /// Network-wide rebroadcast flooding: delivery needs only connectivity,
    /// every node in the source's component forwards once per packet.
    Flood,
}

/// Full configuration of a fluid run. Built by `cavenet-core` from a
/// `Scenario`; constructible directly for unit-level studies.
#[derive(Debug, Clone, PartialEq)]
pub struct FluidConfig {
    /// Number of nodes (ids `0..nodes`).
    pub nodes: u32,
    /// Total simulated time.
    pub sim_time: Duration,
    /// Model step (default 1 s; the last step may be partial).
    pub step: Duration,
    /// PHY/MAC parameterization — the *same* backend the exact engine runs.
    pub backend: ExactBackend,
    /// Data forwarding abstraction.
    pub discipline: RouteDiscipline,
    /// Periodic routing control load per node (packets/s); 0 for flooding.
    pub control_pps_per_node: f64,
    /// Control packet payload size in bytes (headers are added from the
    /// backend's overhead figures).
    pub control_payload_bytes: u32,
    /// The CBR flows.
    pub flows: Vec<FluidFlow>,
    /// Worker shards for the utilization field (execution knob only —
    /// results are bit-identical for every value; see [`Field::integrate`]).
    pub shards: u32,
}

impl FluidConfig {
    /// A minimal valid configuration over the ns-2 default backend with no
    /// flows; callers fill in `nodes`, `flows` and the discipline.
    pub fn ns2_default(nodes: u32, sim_time: Duration) -> Self {
        FluidConfig {
            nodes,
            sim_time,
            step: Duration::from_secs(1),
            backend: ExactBackend::default(),
            discipline: RouteDiscipline::Unicast,
            control_pps_per_node: 1.0,
            control_payload_bytes: 48,
            flows: Vec::new(),
            shards: 1,
        }
    }
}

/// Errors constructing a fluid engine.
#[derive(Debug, Clone, PartialEq)]
pub enum FluidError {
    /// Zero nodes or zero simulated time.
    EmptyScenario,
    /// A zero-length model step.
    BadStep,
    /// A flow endpoint outside `0..nodes`, or a self-flow.
    BadFlow {
        /// Source id of the offending flow.
        src: u32,
        /// Destination id of the offending flow.
        dst: u32,
    },
    /// The mobility trace cannot answer a position query.
    Mobility(MobilityError),
}

impl std::fmt::Display for FluidError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FluidError::EmptyScenario => write!(f, "fluid scenario has no nodes or no duration"),
            FluidError::BadStep => write!(f, "fluid model step must be positive"),
            FluidError::BadFlow { src, dst } => {
                write!(f, "fluid flow {src}->{dst} has an invalid endpoint")
            }
            FluidError::Mobility(e) => write!(f, "fluid mobility query failed: {e}"),
        }
    }
}

impl std::error::Error for FluidError {}

impl From<MobilityError> for FluidError {
    fn from(e: MobilityError) -> Self {
        FluidError::Mobility(e)
    }
}
