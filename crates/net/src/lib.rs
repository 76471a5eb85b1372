//! # cavenet-net — a deterministic discrete-event wireless network simulator
//!
//! This crate is CAVENET's Communication Protocol Simulator (CPS) substrate.
//! The paper delegates protocol evaluation to ns-2; this crate reimplements
//! the pieces of ns-2 that the paper's Table 1 actually configures:
//!
//! * a **discrete-event engine** with an integer-nanosecond virtual clock and
//!   fully deterministic event ordering (`(time, sequence)` tie-breaking);
//! * a **physical layer** with free-space, two-ray ground (the paper's
//!   choice) and log-normal shadowing propagation, calibrated to ns-2's
//!   default 250 m transmission / 550 m carrier-sense ranges;
//! * an **IEEE 802.11 DCF MAC** at 2 Mb/s: CSMA/CA with DIFS/SIFS timing,
//!   binary exponential backoff with freezing, unicast ACK + retransmission,
//!   broadcast without ACK, and link-failure callbacks that feed routing
//!   protocols — RTS/CTS is off, as in Table 1;
//! * **node plumbing**: interface queue, per-node statistics, and trait-based
//!   hook points ([`RoutingProtocol`], [`Application`], [`MobilityModel`])
//!   that the routing, traffic and core crates implement.
//!
//! The simulator is seeded and fully deterministic: the same scenario and
//! seed reproduce byte-identical results, which is what makes the paper's
//! figures regenerable. The event loop is single-threaded; parallelism
//! lives a level up, across independent trials.
//!
//! ```
//! use cavenet_net::{Simulator, ScenarioConfig, StaticMobility};
//!
//! let mobility = StaticMobility::grid(4, 100.0);
//! let mut sim = Simulator::builder(ScenarioConfig::default())
//!     .nodes(4)
//!     .mobility(Box::new(mobility))
//!     .seed(1)
//!     .build();
//! sim.run_until_secs(1.0);
//! assert!(sim.now().as_secs_f64() >= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod api;
pub mod backend;
mod calq;
mod channel;
mod digest;
mod error;
mod fault;
mod grid;
pub mod hash;
mod ids;
mod mac;
mod mobility;
mod node;
mod observer;
mod packet;
mod phy;
mod progress;
mod sim;
pub mod snapshot;
mod stats;
mod tee;
mod time;
mod traits;

pub use api::NodeApi;
pub use backend::{ChannelBackend, ExactBackend, Fidelity, MacBackend};
pub use channel::{Channel, Transmission};
pub use digest::GoldenDigest;
pub use error::NetError;
pub use fault::{FaultEvent, FaultKind, FaultPlan, LossBurst, RecoveryMode};
pub use grid::SpatialGrid;
pub use hash::FastMap;
pub use ids::{FlowId, NodeId};
pub use mac::{MacParams, MacState, MacStats};
pub use mobility::{MobilityModel, PositionEpoch, StaticMobility};
pub use node::NodeStats;
pub use observer::{
    DropReason, EventKind, FrameDropReason, NoopObserver, RouteEventKind, SimObserver,
};
pub use packet::{ControlBlob, DataPayload, Frame, FrameKind, Packet, PacketBody};
pub use phy::{PhyParams, Propagation};
pub use progress::{CancelSignal, ProgressHandle, TrialCancelled};
pub use sim::{ScenarioConfig, Simulator, SimulatorBuilder};
pub use snapshot::{ControlCodec, DataOnlyCodec, WireError, WireReader, WireWriter};
pub use stats::{DropCounts, GlobalStats};
pub use tee::Tee;
pub use time::SimTime;
pub use traits::{Application, NullApplication, NullRouting, RoutingProtocol, RoutingTelemetry};
