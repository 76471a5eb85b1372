//! # cavenet-mobility — lane geometry, mobility traces and ns-2 export
//!
//! This crate is the second half of CAVENET's Behavioural Analyzer block: it
//! takes the 1-dimensional cellular-automaton dynamics from
//! [`cavenet_ca`] and turns them into 2-dimensional mobility traces that a
//! network simulator can consume.
//!
//! Following the paper (§III-D), each lane is given a **lane transformation**
//! — an affine map `Ã = A·X` from the lane's relative coordinate system into
//! the absolute plane — instead of a bespoke textual road-description
//! language. Ring roads (the paper's improved, closed-boundary geometry) are
//! mapped onto a circle of matching circumference so that euclidean
//! distances between any two vehicles are continuous, including across the
//! seam.
//!
//! The crate also provides:
//!
//! * [`MobilityTrace`] — a sampled trajectory per node, stored as
//!   time-major frames when every node shares the sample times, with
//!   interpolated position queries and explicit teleport (wrap) handling;
//! * [`ns2`] import/export of node-movement TCL (`setdest` format, Fig. 3-b),
//!   including the `Δ` offset the paper applies to dodge an ns-2 bug with
//!   absolute position 0 (footnote 3);
//! * [`RandomWaypoint`] — the classical MANET baseline model, exhibiting the
//!   velocity-decay problem the paper contrasts against (§I, §IV-B), plus
//!   the Palm-calculus stationary-start fix of Le Boudec.
//!
//! ```
//! use cavenet_ca::{Lane, NasParams, Boundary};
//! use cavenet_mobility::{LaneGeometry, TraceGenerator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let params = NasParams::builder().length(400).density(0.075).build()?;
//! let lane = Lane::with_uniform_placement(params, Boundary::Closed, 1)?;
//! let geometry = LaneGeometry::ring_circle(params.length_m());
//! let trace = TraceGenerator::new(geometry).steps(100).generate(lane);
//! assert_eq!(trace.node_count(), 30);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod connectivity;
mod error;
mod geometry;
pub mod ns2;
mod random_waypoint;
mod trace;
mod transform;

pub use connectivity::{ConnectivityAnalyzer, ConnectivitySnapshot};
pub use error::MobilityError;
pub use geometry::LaneGeometry;
pub use random_waypoint::{RandomWaypoint, RwParams};
pub use trace::{MobilityTrace, NodeTrajectory, TraceGenerator, TraceSample};
pub use transform::{Affine2, Point2};
