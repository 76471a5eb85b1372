//! The saturated jam-ring workload: vehicles at a fixed 2 m headway creeping
//! at 3 m/s round a circular ring, one CBR source whose single packet is
//! TTL-flooded by every station.
//!
//! The trace-backed mobility has a finite speed bound, so the engine reuses
//! its neighbor grid while the nodes drift, and at this density every
//! transmission reaches every station within carrier-sense range (~550 of
//! them once the ring is longer than the carrier-sense disk). Headway is
//! independent of the fleet size, so per-transmission work is the same at
//! every node count.

use std::time::Duration;

use cavenet_core::mobility::{LaneGeometry, MobilityTrace, NodeTrajectory, TraceSample};
use cavenet_core::{MobilitySource, Protocol, Scenario};

/// Gap between consecutive vehicles, metres.
pub const JAM_HEADWAY_M: f64 = 2.0;
/// Creep speed, m/s: the trace's finite speed bound.
pub const JAM_CREEP_MPS: f64 = 3.0;
/// Simulated seconds. The flooded packet needs only ~20 relay generations
/// to circle the ring, all well inside this window.
pub const JAM_SIM_SECS: u64 = 4;

/// `nodes` vehicles at [`JAM_HEADWAY_M`] spacing creeping at
/// [`JAM_CREEP_MPS`], sampled once per simulated second.
fn jam_trace(nodes: usize) -> MobilityTrace {
    let circuit = nodes as f64 * JAM_HEADWAY_M;
    let geometry = LaneGeometry::ring_circle(circuit);
    let trajectories = (0..nodes)
        .map(|i| {
            let samples = (0..=JAM_SIM_SECS)
                .map(|t| {
                    let s = (i as f64 * JAM_HEADWAY_M + JAM_CREEP_MPS * t as f64) % circuit;
                    TraceSample {
                        time: t as f64,
                        position: geometry.embed(s),
                        speed: JAM_CREEP_MPS,
                        teleport: false,
                    }
                })
                .collect();
            NodeTrajectory::new(samples).expect("monotone jam samples")
        })
        .collect();
    MobilityTrace::from_trajectories(trajectories)
}

/// The jam-ring scenario over `jam_trace`: node 1 sends exactly one CBR
/// packet towards node 0 and every station floods it. Seed 1.
pub fn jam_ring_scenario(nodes: usize) -> Scenario {
    let mut s = Scenario::paper_table1(Protocol::Flooding);
    s.nodes = nodes;
    s.circuit_m = nodes as f64 * JAM_HEADWAY_M;
    s.mobility = MobilitySource::Trace(jam_trace(nodes));
    s.sim_time = Duration::from_secs(JAM_SIM_SECS);
    s.traffic.senders = vec![1];
    s.traffic.receiver = 0;
    s.traffic.cbr.start = Duration::from_secs(1);
    s.traffic.cbr.stop = Duration::from_secs(3);
    s.traffic.cbr.rate_pps = 0.6; // exactly one flooded packet
    s.seed = 1;
    s
}
