//! # cavenet-routing — MANET routing protocols, implemented from scratch
//!
//! The CAVENET paper's contribution on the protocol side is the
//! implementation and comparison of three MANET routing protocols on
//! vehicular mobility (paper §III-B):
//!
//! * **AODV** (RFC 3561) — reactive: on-demand route discovery with
//!   RREQ flooding, reverse-path RREP, sequence-numbered routes, HELLO-based
//!   neighbour sensing and RERR link-failure reporting ([`Aodv`]);
//! * **OLSR** (RFC 3626) — proactive: periodic HELLO link sensing,
//!   multipoint-relay (MPR) selection, TC dissemination through MPRs and
//!   shortest-path route computation, plus the olsrd **ETX/LQ extension**
//!   the paper describes (§III-B-1) as an optional link metric ([`Olsr`]);
//! * **DYMO** (draft-ietf-manet-dymo) — reactive successor of AODV with
//!   **path accumulation**: every node on a discovery path learns routes to
//!   all intermediate hops, and link breakage floods RERRs ([`Dymo`]).
//!
//! AODV and DYMO share one on-demand core: the discovery buffer and its
//! tick, neighbour timeouts, the duplicate cache, RERRs, HELLOs and the
//! checkpoint state are written once, and each protocol adds only its route
//! messages and its retry rule.
//!
//! Two baselines complete the crate: a TTL-scoped [`Flooding`] protocol and
//! [`Dsdv`] — the classical proactive distance-vector protocol the paper
//! names as AODV's ancestor — plus the shared sequence-numbered
//! [`RouteTable`]. All protocols implement
//! [`cavenet_net::RoutingProtocol`] and run unmodified under the
//! deterministic simulator.
//!
//! ```
//! use cavenet_net::{Simulator, ScenarioConfig, StaticMobility};
//! use cavenet_routing::Aodv;
//!
//! let mut sim = Simulator::builder(ScenarioConfig::default())
//!     .nodes(4)
//!     .mobility(Box::new(StaticMobility::line(4, 200.0)))
//!     .routing_with(|_| Box::new(Aodv::new()))
//!     .build();
//! sim.run_until_secs(2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aodv;
mod dsdv;
mod dymo;
mod flooding;
mod olsr;
mod on_demand;
mod table;

#[cfg(test)]
pub(crate) mod testutil;

pub use aodv::{Aodv, AodvCodec, AodvConfig};
pub use dsdv::{Dsdv, DsdvCodec, DsdvConfig};
pub use dymo::{Dymo, DymoCodec, DymoConfig};
pub use flooding::Flooding;
pub use olsr::{LinkMetric, Olsr, OlsrCodec, OlsrConfig};
pub use table::{RouteEntry, RouteTable};
