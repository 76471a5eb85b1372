//! Declarative experiment scenarios, including the paper's Table 1.

use std::error::Error;
use std::fmt;
use std::time::Duration;

use cavenet_ca::{Boundary, CaError, Lane, NasParams, DEFAULT_VMAX};
use cavenet_mobility::{LaneGeometry, MobilityError, MobilityTrace, TraceGenerator};
use cavenet_net::{FaultPlan, Fidelity, NetError, Propagation};
use cavenet_traffic::CbrConfig;

use crate::Protocol;

/// How node mobility is produced.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum MobilitySource {
    /// The Nagel–Schreckenberg CA on a closed ring matching the scenario's
    /// circuit length — the improved-CAVENET mobility model.
    NasCa {
        /// Random slow-down probability `p`.
        slowdown_probability: f64,
        /// Maximum velocity in cells/step (default 5 = 135 km/h).
        vmax: u32,
    },
    /// A multi-lane NaS ring (paper Fig. 1): `lanes` concentric rings with
    /// lane changing; the scenario's `nodes` are split evenly across lanes.
    /// Adjacent lanes are offset radially by one lane width (3.75 m), so a
    /// vehicle on the inner ring can relay for the outer one.
    MultiLaneCa {
        /// Number of lanes (≥ 1).
        lanes: usize,
        /// Random slow-down probability `p`.
        slowdown_probability: f64,
        /// Probability of taking an advantageous, safe lane change.
        change_probability: f64,
    },
    /// Nodes parked evenly around the circuit (no movement) — isolates
    /// protocol behaviour from mobility.
    ParkedRing,
    /// A pre-generated trace (e.g. parsed from an ns-2 movement file).
    Trace(MobilityTrace),
}

/// The application traffic layout.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficPattern {
    /// Sending node ids (paper: 1–8).
    pub senders: Vec<u32>,
    /// Receiving node id (paper: 0).
    pub receiver: u32,
    /// Per-sender CBR parameters.
    pub cbr: CbrConfig,
}

impl TrafficPattern {
    /// The paper's pattern: senders 1–8 → receiver 0, Table 1 CBR.
    pub fn paper_default() -> Self {
        TrafficPattern {
            senders: (1..=8).collect(),
            receiver: 0,
            cbr: CbrConfig::paper_default(),
        }
    }
}

/// A complete experiment description.
///
/// [`Scenario::paper_table1`] reproduces Table 1 of the paper:
///
/// | parameter | value |
/// |---|---|
/// | routing protocol | AODV / OLSR / DYMO |
/// | simulation time | 100 s |
/// | simulation area | 3000 m circuit |
/// | number of nodes | 30 |
/// | traffic | CBR, 5 pkt/s × 512 B, deterministic src/dst |
/// | MAC | IEEE 802.11 DCF, 2 Mb/s, no RTS/CTS |
/// | transmission range | 250 m |
/// | propagation | two-ray ground |
/// | HELLO intervals | 1 s (AODV/OLSR/DYMO), TC 2 s |
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Routing protocol under test.
    pub protocol: Protocol,
    /// Total simulated time.
    pub sim_time: Duration,
    /// Number of vehicles/nodes.
    pub nodes: usize,
    /// Circuit length in metres.
    pub circuit_m: f64,
    /// Mobility source.
    pub mobility: MobilitySource,
    /// Traffic layout.
    pub traffic: TrafficPattern,
    /// Radio propagation model.
    pub propagation: Propagation,
    /// Enable the 802.11 RTS/CTS handshake (Table 1: off). When on, every
    /// unicast data frame is preceded by an RTS/CTS exchange with NAV-based
    /// virtual carrier sensing.
    pub rts_cts: bool,
    /// Use the spatial neighbor grid for broadcast scans (default: on).
    /// The event schedule is identical either way; off exists for
    /// benchmarking the brute-force path.
    pub neighbor_grid: bool,
    /// Treat trace positions as constant within steps of this width (see
    /// [`TraceMobility::quantized`](crate::TraceMobility::quantized)).
    /// `None` (the default) resolves positions exactly at every event time.
    pub mobility_quantum: Option<Duration>,
    /// Fault-injection plan (node churn, link loss, fading bursts). The
    /// default empty plan leaves the simulation untouched — results are
    /// bit-identical to a scenario without the field.
    pub fault_plan: FaultPlan,
    /// Does nothing (default: 1): both engines are serial. It once set the
    /// worker count of the sharded exact engine and of the fluid backend's
    /// utilization integral, neither of which beat one worker, and remains
    /// only because the repository benchmark package (`benchmarks/benchmark`)
    /// still sets it.
    ///
    /// An *execution* knob, not a behaviour knob: any value produces
    /// bit-identical results, which is why it is excluded from
    /// checkpoint/run identity — a snapshot taken under N shards resumes
    /// under M.
    pub shards: usize,
    /// Model backend fidelity (default: [`Fidelity::Exact`], the per-frame
    /// DCF engine). [`Fidelity::Fluid`] selects the flow-level analytic
    /// backend (`cavenet-fluid`): 100–1000x faster, approximate, still
    /// deterministic.
    ///
    /// A *behaviour* knob, unlike `shards`: results differ between
    /// fidelities, so it participates in checkpoint/run identity — a
    /// snapshot taken under one fidelity refuses to resume under the other.
    pub fidelity: Fidelity,
    /// Master random seed.
    pub seed: u64,
}

impl Scenario {
    /// The paper's Table 1 scenario for the given protocol.
    ///
    /// The paper does not state the CA's slow-down probability for the
    /// protocol runs; we use `p = 0.3` — the value of its space-time
    /// examples (Fig. 5-a/b) — which produces realistic stop-and-go
    /// dynamics. See EXPERIMENTS.md.
    pub fn paper_table1(protocol: Protocol) -> Self {
        Scenario {
            protocol,
            sim_time: Duration::from_secs(100),
            nodes: 30,
            circuit_m: 3000.0,
            mobility: MobilitySource::NasCa {
                slowdown_probability: 0.3,
                vmax: DEFAULT_VMAX,
            },
            traffic: TrafficPattern::paper_default(),
            propagation: Propagation::TwoRayGround,
            rts_cts: false,
            neighbor_grid: true,
            mobility_quantum: None,
            fault_plan: FaultPlan::default(),
            shards: 1,
            fidelity: Fidelity::Exact,
            seed: 1,
        }
    }

    /// Generate the mobility trace for this scenario (the BA block's
    /// output).
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] if the CA parameters are inconsistent
    /// (e.g. more vehicles than cells).
    pub fn build_trace(&self) -> Result<MobilityTrace, ScenarioError> {
        match &self.mobility {
            MobilitySource::Trace(t) => Ok(t.clone()),
            MobilitySource::ParkedRing => {
                // A one-sample trace per node, parked on the ring.
                let geometry = LaneGeometry::ring_circle(self.circuit_m);
                let spacing = self.circuit_m / self.nodes as f64;
                let nodes = (0..self.nodes)
                    .map(|i| {
                        cavenet_mobility::NodeTrajectory::new(vec![cavenet_mobility::TraceSample {
                            time: 0.0,
                            position: geometry.embed(i as f64 * spacing),
                            speed: 0.0,
                            teleport: false,
                        }])
                        .map_err(ScenarioError::Trace)
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(MobilityTrace::from_trajectories(nodes))
            }
            MobilitySource::MultiLaneCa {
                lanes,
                slowdown_probability,
                change_probability,
            } => {
                use cavenet_ca::{MultiLaneParams, MultiLaneRoad};
                let lanes = (*lanes).max(1);
                let cells = (self.circuit_m / cavenet_ca::CELL_LENGTH_M).round() as usize;
                let per_lane = self.nodes.div_ceil(lanes);
                let nas = NasParams::builder()
                    .length(cells)
                    .vehicle_count(per_lane)
                    .slowdown_probability(*slowdown_probability)
                    .build()?;
                let params = MultiLaneParams::new(nas, lanes, *change_probability)?;
                let mut road = MultiLaneRoad::new(params, self.seed)?;
                for _ in 0..200 {
                    road.step();
                }
                // Concentric rings whose radii differ by one lane width
                // (3.75 m): circumference grows by 2π·3.75 per lane.
                let geometries: Vec<LaneGeometry> = (0..lanes)
                    .map(|k| {
                        LaneGeometry::ring_circle(
                            self.circuit_m + k as f64 * 3.75 * std::f64::consts::TAU,
                        )
                    })
                    .collect();
                let steps = self.sim_time.as_secs() as usize + 1;
                Ok(TraceGenerator::new(geometries[0])
                    .steps(steps)
                    .generate_multilane(road, &geometries))
            }
            MobilitySource::NasCa {
                slowdown_probability,
                vmax,
            } => {
                let cells = (self.circuit_m / cavenet_ca::CELL_LENGTH_M).round() as usize;
                let params = NasParams::builder()
                    .length(cells)
                    .vehicle_count(self.nodes)
                    .vmax(*vmax)
                    .slowdown_probability(*slowdown_probability)
                    .build()?;
                // Random placement (not uniform): the stochastic NaS model
                // then develops jam clusters separated by gaps that can
                // exceed the 250 m radio range — the connectivity dynamics
                // that drive the paper's bursty goodput surfaces.
                let mut lane = Lane::with_random_placement(params, Boundary::Closed, self.seed)?;
                // Warm the CA up so the trace starts in the (quasi-)
                // stationary regime (paper §IV-B's transient-removal advice).
                for _ in 0..200 {
                    lane.step();
                }
                let geometry = LaneGeometry::ring_circle(self.circuit_m);
                let steps = self.sim_time.as_secs() as usize + 1;
                Ok(TraceGenerator::new(geometry).steps(steps).generate(lane))
            }
        }
    }

    /// Validate internal consistency (sender/receiver ids in range, fault
    /// plan well-formed).
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::BadTraffic`] when a flow endpoint does not
    /// exist, or [`ScenarioError::Fault`] when the fault plan names an
    /// unknown node, recovers a node that is not down, or has overlapping
    /// or inverted loss windows.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.shards == 0 {
            return Err(ScenarioError::BadShards);
        }
        let n = self.nodes as u32;
        if self.traffic.receiver >= n {
            return Err(ScenarioError::BadTraffic {
                node: self.traffic.receiver,
            });
        }
        for &s in &self.traffic.senders {
            if s >= n || s == self.traffic.receiver {
                return Err(ScenarioError::BadTraffic { node: s });
            }
        }
        self.fault_plan
            .validate(self.nodes)
            .map_err(ScenarioError::Fault)?;
        Ok(())
    }
}

/// Error raised when building or validating a scenario.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ScenarioError {
    /// The CA mobility parameters are invalid.
    Mobility(CaError),
    /// A mobility trace is malformed (unordered samples, unknown node).
    Trace(MobilityError),
    /// A traffic endpoint is out of range or self-directed.
    BadTraffic {
        /// The offending node id.
        node: u32,
    },
    /// `shards` is zero (a single worker is `shards = 1`).
    BadShards,
    /// The fluid backend rejected the scenario (empty, bad flow endpoint).
    Fluid(cavenet_fluid::FluidError),
    /// An entry point restricted to one fidelity was called under the
    /// other (e.g. the exact engine's observer path on a fluid scenario).
    WrongFidelity {
        /// The fidelity the entry point requires.
        expected: Fidelity,
    },
    /// The fault-injection plan is invalid for this scenario (unknown
    /// node, recover-before-crash, overlapping or inverted windows, bad
    /// probability), or the engine rejected the configuration at build
    /// time.
    Fault(NetError),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Mobility(e) => write!(f, "mobility model error: {e}"),
            ScenarioError::Trace(e) => write!(f, "mobility trace error: {e}"),
            ScenarioError::BadTraffic { node } => {
                write!(
                    f,
                    "traffic endpoint {node} is out of range or self-directed"
                )
            }
            ScenarioError::Fault(e) => write!(f, "fault plan error: {e}"),
            ScenarioError::BadShards => {
                write!(f, "shards must be at least 1 (1 = a single worker)")
            }
            ScenarioError::Fluid(e) => write!(f, "fluid backend error: {e}"),
            ScenarioError::WrongFidelity { expected } => {
                write!(f, "entry point requires the {} fidelity", expected.name())
            }
        }
    }
}

impl Error for ScenarioError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ScenarioError::Mobility(e) => Some(e),
            ScenarioError::Trace(e) => Some(e),
            ScenarioError::BadTraffic { .. } => None,
            ScenarioError::BadShards => None,
            ScenarioError::Fault(e) => Some(e),
            ScenarioError::Fluid(e) => Some(e),
            ScenarioError::WrongFidelity { .. } => None,
        }
    }
}

impl From<CaError> for ScenarioError {
    fn from(e: CaError) -> Self {
        ScenarioError::Mobility(e)
    }
}

impl From<NetError> for ScenarioError {
    fn from(e: NetError) -> Self {
        ScenarioError::Fault(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_defaults() {
        let s = Scenario::paper_table1(Protocol::Aodv);
        assert_eq!(s.sim_time, Duration::from_secs(100));
        assert_eq!(s.nodes, 30);
        assert_eq!(s.circuit_m, 3000.0);
        assert_eq!(s.propagation, Propagation::TwoRayGround);
        assert_eq!(s.traffic.senders, vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(s.traffic.receiver, 0);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn ca_trace_has_thirty_nodes_and_full_duration() {
        let s = Scenario::paper_table1(Protocol::Dymo);
        let trace = s.build_trace().unwrap();
        assert_eq!(trace.node_count(), 30);
        assert!(trace.duration() >= 100.0);
    }

    #[test]
    fn parked_ring_trace() {
        let mut s = Scenario::paper_table1(Protocol::Aodv);
        s.mobility = MobilitySource::ParkedRing;
        let trace = s.build_trace().unwrap();
        assert_eq!(trace.node_count(), 30);
        let a = trace.position_at(0, 0.0).unwrap();
        let b = trace.position_at(0, 50.0).unwrap();
        assert_eq!(a, b, "parked nodes do not move");
    }

    #[test]
    fn validation_catches_bad_endpoints() {
        let mut s = Scenario::paper_table1(Protocol::Aodv);
        s.traffic.receiver = 99;
        assert!(matches!(
            s.validate(),
            Err(ScenarioError::BadTraffic { node: 99 })
        ));
        let mut s = Scenario::paper_table1(Protocol::Aodv);
        s.traffic.senders = vec![0]; // same as receiver
        assert!(s.validate().is_err());
    }

    #[test]
    fn validation_catches_bad_fault_plans() {
        use cavenet_net::SimTime;
        let at = SimTime::from_secs_f64(10.0);
        let mut s = Scenario::paper_table1(Protocol::Aodv);
        s.fault_plan = FaultPlan::new().crash(at, 99);
        assert!(matches!(
            s.validate(),
            Err(ScenarioError::Fault(NetError::FaultUnknownNode {
                node: 99,
                nodes: 30
            }))
        ));
        let mut s = Scenario::paper_table1(Protocol::Aodv);
        s.fault_plan = FaultPlan::new().recover(at, 5);
        assert!(matches!(
            s.validate(),
            Err(ScenarioError::Fault(NetError::FaultRecoverBeforeCrash {
                node: 5,
                ..
            }))
        ));
    }

    #[test]
    fn validation_rejects_zero_shards() {
        let mut s = Scenario::paper_table1(Protocol::Aodv);
        assert_eq!(s.shards, 1, "serial by default");
        s.shards = 0;
        assert!(matches!(s.validate(), Err(ScenarioError::BadShards)));
        s.shards = 4;
        assert!(s.validate().is_ok());
    }

    #[test]
    fn bad_ca_parameters_surface_as_error() {
        let mut s = Scenario::paper_table1(Protocol::Aodv);
        s.mobility = MobilitySource::NasCa {
            slowdown_probability: 2.0,
            vmax: 5,
        };
        assert!(matches!(s.build_trace(), Err(ScenarioError::Mobility(_))));
    }

    #[test]
    fn multilane_trace_covers_all_nodes() {
        let mut s = Scenario::paper_table1(Protocol::Aodv);
        s.mobility = MobilitySource::MultiLaneCa {
            lanes: 2,
            slowdown_probability: 0.3,
            change_probability: 0.5,
        };
        let trace = s.build_trace().unwrap();
        assert!(trace.node_count() >= 30);
        assert!(trace.duration() >= 100.0);
        // Vehicles move.
        let a = trace.position_at(0, 0.0).unwrap();
        let b = trace.position_at(0, 50.0).unwrap();
        assert!(
            a.distance(&b) > 1.0 || {
                // A vehicle stuck in a jam may barely move; check another.
                let c = trace.position_at(5, 0.0).unwrap();
                let d = trace.position_at(5, 50.0).unwrap();
                c.distance(&d) > 1.0
            }
        );
    }

    #[test]
    fn multilane_experiment_runs() {
        let mut s = Scenario::paper_table1(Protocol::Aodv);
        s.mobility = MobilitySource::MultiLaneCa {
            lanes: 2,
            slowdown_probability: 0.3,
            change_probability: 0.5,
        };
        s.sim_time = std::time::Duration::from_secs(30);
        s.traffic.cbr.start = std::time::Duration::from_secs(5);
        s.traffic.cbr.stop = std::time::Duration::from_secs(25);
        s.traffic.senders = vec![1, 2];
        let r = crate::Experiment::new(s).run().unwrap();
        assert!(r.total_sent() > 0);
    }

    #[test]
    fn trace_source_passthrough() {
        let s = Scenario::paper_table1(Protocol::Aodv);
        let t = s.build_trace().unwrap();
        let mut s2 = s;
        s2.mobility = MobilitySource::Trace(t.clone());
        let t2 = s2.build_trace().unwrap();
        assert_eq!(t.node_count(), t2.node_count());
    }
}
