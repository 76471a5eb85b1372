//! Mobility traces: sampled node trajectories with interpolation.

use std::sync::Arc;

use cavenet_ca::{Lane, MultiLaneRoad};

use crate::{LaneGeometry, MobilityError, Point2};

/// One sample of a node's trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSample {
    /// Simulation time in seconds.
    pub time: f64,
    /// Position in the absolute plane (metres).
    pub position: Point2,
    /// Scalar speed in metres per second.
    pub speed: f64,
    /// `true` if the node *jumped* here discontinuously (e.g. the
    /// first-version CAVENET recycling teleport). Interpolators must not
    /// interpolate across a teleport.
    pub teleport: bool,
}

/// The sampled trajectory of a single node.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodeTrajectory {
    samples: Vec<TraceSample>,
}

impl NodeTrajectory {
    /// Build from samples; they must be in strictly increasing time order.
    ///
    /// # Errors
    ///
    /// Returns [`MobilityError::UnorderedSamples`] (with node 0 as a
    /// placeholder — the caller knows the real id) when out of order, and
    /// [`MobilityError::InvalidParameter`] for non-finite sample times or
    /// positions (`NaN` comparisons would defeat the ordering check and
    /// poison interpolation downstream).
    pub fn new(samples: Vec<TraceSample>) -> Result<Self, MobilityError> {
        if samples
            .iter()
            .any(|s| !s.time.is_finite() || !s.position.x.is_finite() || !s.position.y.is_finite())
        {
            return Err(MobilityError::InvalidParameter {
                name: "sample time/position must be finite",
            });
        }
        if samples.windows(2).any(|w| w[0].time >= w[1].time) {
            return Err(MobilityError::UnorderedSamples { node: 0 });
        }
        Ok(NodeTrajectory { samples })
    }

    /// The raw samples.
    pub fn samples(&self) -> &[TraceSample] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trajectory has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn push(&mut self, s: TraceSample) {
        debug_assert!(self.samples.last().is_none_or(|last| last.time < s.time));
        self.samples.push(s);
    }

    /// Position at time `t` with linear interpolation between samples.
    ///
    /// Before the first sample the first position is returned; after the
    /// last sample, the last. Across a teleport the node holds its previous
    /// position until the instant of the jump.
    ///
    /// Returns `None` for an empty trajectory or a NaN `t`.
    pub fn position_at(&self, t: f64) -> Option<Point2> {
        self.interpolate(t, |samples| segment_of(samples, t))
    }

    /// [`position_at`](Self::position_at), trying segment `*hint` (the
    /// index of the segment's first sample) before the binary search; on
    /// return `*hint` holds the segment used, or is unchanged when `t`
    /// clamps. The hint is tested in the search's own `total_cmp` order,
    /// so any hint, even out of range, gives bit-identical results.
    pub(crate) fn position_at_hinted(&self, t: f64, hint: &mut usize) -> Option<Point2> {
        self.interpolate(t, |samples| {
            let i = *hint;
            let inside = i < samples.len() - 1
                && samples[i].time.total_cmp(&t).is_le()
                && samples[i + 1].time.total_cmp(&t).is_gt();
            if !inside {
                *hint = segment_of(samples, t)?;
            }
            Some(*hint)
        })
    }

    /// Clamp `t` to the sampled span, or interpolate on the segment that
    /// `segment` finds for it (called only on a non-empty trajectory).
    #[inline]
    fn interpolate(
        &self,
        t: f64,
        segment: impl FnOnce(&[TraceSample]) -> Option<usize>,
    ) -> Option<Point2> {
        let samples = &self.samples;
        let (first, last) = (samples.first()?, samples.last()?);
        if t <= first.time {
            return Some(first.position);
        }
        if t >= last.time {
            return Some(last.position);
        }
        let i = segment(samples)?;
        let a = &samples[i];
        let b = &samples[i + 1];
        if b.teleport {
            return Some(a.position);
        }
        let w = (t - a.time) / (b.time - a.time);
        Some(Point2::new(
            a.position.x + w * (b.position.x - a.position.x),
            a.position.y + w * (b.position.y - a.position.y),
        ))
    }

    /// Time-averaged speed over the whole trajectory (mean of samples).
    pub fn mean_speed(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.speed).sum::<f64>() / self.samples.len() as f64
    }

    /// Upper bound on the node's displacement rate in metres per second:
    /// over any interval `[t, t+Δ]` the interpolated position moves at most
    /// `max_speed · Δ`. Derived from the piecewise-linear segments (the node
    /// is stationary before the first and after the last sample).
    ///
    /// Returns `None` when the trajectory contains a teleport: the jump is
    /// instantaneous, so no finite rate bounds it.
    pub fn max_speed(&self) -> Option<f64> {
        let mut vmax = 0.0f64;
        for w in self.samples.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            if b.teleport {
                return None;
            }
            let d = ((b.position.x - a.position.x).powi(2) + (b.position.y - a.position.y).powi(2))
                .sqrt();
            vmax = vmax.max(d / (b.time - a.time));
        }
        Some(vmax)
    }
}

/// The segment of `samples` that holds `t`: the index of the last sample at
/// or before `t` in `total_cmp` order, when a later sample follows it.
/// `None` when `t` sorts outside the samples, which past the clamps in
/// `NodeTrajectory::interpolate` only a NaN of either sign does.
fn segment_of(samples: &[TraceSample], t: f64) -> Option<usize> {
    let i = match samples.binary_search_by(|s| s.time.total_cmp(&t)) {
        Ok(i) => i,
        Err(i) => i.checked_sub(1)?,
    };
    (i + 1 < samples.len()).then_some(i)
}

/// Why a known node has no position at `t`: a NaN time, or no samples.
fn unresolved(id: usize, t: f64) -> MobilityError {
    if t.is_nan() {
        MobilityError::InvalidParameter {
            name: "query time must not be NaN",
        }
    } else {
        MobilityError::UnknownNode { node: id }
    }
}

/// A full mobility trace: one trajectory per node, identified by a dense
/// node id `0..node_count`.
///
/// A built trace is never mutated, so the trajectories sit behind an
/// [`Arc`]: cloning a trace (with the scenario that holds it, or into a
/// fluid engine) shares them rather than copying every node's samples.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MobilityTrace {
    nodes: Arc<[NodeTrajectory]>,
}

impl MobilityTrace {
    /// Build from per-node trajectories.
    pub fn from_trajectories(nodes: Vec<NodeTrajectory>) -> Self {
        MobilityTrace {
            nodes: nodes.into(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The trajectory of node `id`.
    ///
    /// # Errors
    ///
    /// Returns [`MobilityError::UnknownNode`] for an out-of-range id.
    pub fn node(&self, id: usize) -> Result<&NodeTrajectory, MobilityError> {
        self.nodes
            .get(id)
            .ok_or(MobilityError::UnknownNode { node: id })
    }

    /// Iterate over `(node_id, trajectory)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &NodeTrajectory)> {
        self.nodes.iter().enumerate()
    }

    /// Position of node `id` at time `t` (interpolated).
    ///
    /// # Errors
    ///
    /// Returns [`MobilityError::UnknownNode`] for an out-of-range id or a
    /// node with no samples, and [`MobilityError::InvalidParameter`] for a
    /// NaN `t`.
    pub fn position_at(&self, id: usize, t: f64) -> Result<Point2, MobilityError> {
        self.node(id)?
            .position_at(t)
            .ok_or_else(|| unresolved(id, t))
    }

    /// Positions of nodes `0..n` at time `t`, written into `out` (cleared
    /// first): the per-node [`position_at`](Self::position_at) in one pass,
    /// bit for bit. Each node first tries the segment the previous node
    /// used, so a trace sampled on a common time grid, as every generated
    /// one is, skips the binary search.
    ///
    /// # Errors
    ///
    /// The error [`position_at`](Self::position_at) gives for the lowest
    /// node id that has no position.
    pub fn positions_into(
        &self,
        n: usize,
        t: f64,
        out: &mut Vec<Point2>,
    ) -> Result<(), MobilityError> {
        out.clear();
        out.reserve(n);
        let mut hint = 0;
        for id in 0..n {
            let p = self
                .node(id)?
                .position_at_hinted(t, &mut hint)
                .ok_or_else(|| unresolved(id, t))?;
            out.push(p);
        }
        Ok(())
    }

    /// Largest sample time across all nodes (0 if the trace is empty).
    pub fn duration(&self) -> f64 {
        self.nodes
            .iter()
            .filter_map(|n| n.samples().last())
            .map(|s| s.time)
            .fold(0.0, f64::max)
    }

    /// Upper bound on any node's displacement rate in metres per second
    /// (see [`NodeTrajectory::max_speed`]); `None` if any trajectory
    /// teleports. An empty trace is vacuously stationary (`Some(0.0)`).
    pub fn max_speed(&self) -> Option<f64> {
        self.nodes
            .iter()
            .try_fold(0.0f64, |acc, n| n.max_speed().map(|v| acc.max(v)))
    }

    /// All node positions at time `t` (nodes with no samples are skipped).
    pub fn positions_at(&self, t: f64) -> Vec<(usize, Point2)> {
        let mut hint = 0;
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.position_at_hinted(t, &mut hint).map(|p| (i, p)))
            .collect()
    }
}

/// Generates [`MobilityTrace`]s by running a CA lane (or multi-lane road)
/// and embedding positions through a [`LaneGeometry`].
///
/// The number of trace nodes equals the number of vehicles; node ids are the
/// stable [`cavenet_ca::VehicleId`]s.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    geometry: LaneGeometry,
    steps: usize,
    sample_every: usize,
    rebase_time: bool,
}

impl TraceGenerator {
    /// New generator embedding through `geometry`, running 100 steps and
    /// sampling every step by default.
    pub fn new(geometry: LaneGeometry) -> Self {
        TraceGenerator {
            geometry,
            steps: 100,
            sample_every: 1,
            rebase_time: true,
        }
    }

    /// Whether trace timestamps are re-based so the first sample is at
    /// `t = 0` even if the lane was warmed up beforehand (default `true`).
    /// Set to `false` to keep the lane's absolute step count as the time
    /// axis.
    pub fn rebase_time(mut self, rebase: bool) -> Self {
        self.rebase_time = rebase;
        self
    }

    /// Number of CA steps to run.
    pub fn steps(mut self, steps: usize) -> Self {
        self.steps = steps;
        self
    }

    /// Record a sample every `n` steps (n ≥ 1).
    pub fn sample_every(mut self, n: usize) -> Self {
        self.sample_every = n.max(1);
        self
    }

    /// The geometry used for embedding.
    pub fn geometry(&self) -> &LaneGeometry {
        &self.geometry
    }

    /// Run `lane` for the configured number of steps, recording a trace.
    ///
    /// The lane is consumed so that the trace unambiguously corresponds to
    /// the lane's state sequence from its current time.
    pub fn generate(&self, mut lane: Lane) -> MobilityTrace {
        let cell_m = lane.params().cell_length_m();
        let dt = lane.params().dt_s();
        let t0 = if self.rebase_time { lane.time() } else { 0 };
        // Upper bound on node ids: closed/recycling lanes keep their ids;
        // open lanes mint fresh ones while stepping.
        let mut nodes: Vec<NodeTrajectory> = Vec::new();
        let record = |lane: &Lane, nodes: &mut Vec<NodeTrajectory>| {
            let t = (lane.time() - t0) as f64 * dt;
            for v in lane.vehicles() {
                let id = v.id().0 as usize;
                if id >= nodes.len() {
                    nodes.resize(id + 1, NodeTrajectory::default());
                }
                let s_m = v.position() as f64 * cell_m;
                let teleport = v.wrapped_last_step() && !self.geometry.is_closed();
                nodes[id].push(TraceSample {
                    time: t,
                    position: self.geometry.embed(s_m),
                    speed: lane.params().velocity_to_mps(v.velocity()),
                    teleport,
                });
            }
        };
        record(&lane, &mut nodes);
        for step in 1..=self.steps {
            lane.step();
            if step % self.sample_every == 0 {
                record(&lane, &mut nodes);
            }
        }
        MobilityTrace::from_trajectories(nodes)
    }

    /// Run a multi-lane road, embedding lane `k` through `geometries[k]`
    /// (falling back to the generator's own geometry when the slice is too
    /// short). Lane changes appear as small lateral jumps, flagged as
    /// teleports only if the target geometry is open.
    pub fn generate_multilane(
        &self,
        mut road: MultiLaneRoad,
        geometries: &[LaneGeometry],
    ) -> MobilityTrace {
        let cell_m = road.params().nas.cell_length_m();
        let dt = road.params().nas.dt_s();
        let t0 = if self.rebase_time { road.time() } else { 0 };
        let geo = |k: usize| geometries.get(k).copied().unwrap_or(self.geometry);
        let mut nodes: Vec<NodeTrajectory> = Vec::new();
        let record = |road: &MultiLaneRoad, nodes: &mut Vec<NodeTrajectory>| {
            let t = (road.time() - t0) as f64 * dt;
            for (lane, pos, vel, id) in road.snapshot() {
                let idx = id.0 as usize;
                if idx >= nodes.len() {
                    nodes.resize(idx + 1, NodeTrajectory::default());
                }
                nodes[idx].push(TraceSample {
                    time: t,
                    position: geo(lane).embed(pos as f64 * cell_m),
                    speed: vel as f64 * cell_m / dt,
                    teleport: false,
                });
            }
        };
        record(&road, &mut nodes);
        for step in 1..=self.steps {
            road.step();
            if step % self.sample_every == 0 {
                record(&road, &mut nodes);
            }
        }
        MobilityTrace::from_trajectories(nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cavenet_ca::{Boundary, NasParams};
    use proptest::prelude::*;

    fn sample(t: f64, x: f64, y: f64) -> TraceSample {
        TraceSample {
            time: t,
            position: Point2::new(x, y),
            speed: 0.0,
            teleport: false,
        }
    }

    #[test]
    fn trajectory_rejects_unordered() {
        let r = NodeTrajectory::new(vec![sample(1.0, 0.0, 0.0), sample(1.0, 1.0, 0.0)]);
        assert!(matches!(r, Err(MobilityError::UnorderedSamples { .. })));
    }

    #[test]
    fn trajectory_rejects_non_finite_samples() {
        // A NaN time would defeat the ordering check (NaN comparisons are
        // always false) and then poison interpolation.
        for bad in [
            vec![sample(f64::NAN, 0.0, 0.0), sample(1.0, 1.0, 0.0)],
            vec![sample(0.0, f64::INFINITY, 0.0)],
            vec![sample(0.0, 0.0, f64::NAN)],
        ] {
            let r = NodeTrajectory::new(bad);
            assert!(matches!(r, Err(MobilityError::InvalidParameter { .. })));
        }
    }

    #[test]
    fn interpolation_midpoint() {
        let tr = NodeTrajectory::new(vec![sample(0.0, 0.0, 0.0), sample(2.0, 10.0, 4.0)]).unwrap();
        let p = tr.position_at(1.0).unwrap();
        assert!((p.x - 5.0).abs() < 1e-12);
        assert!((p.y - 2.0).abs() < 1e-12);
    }

    #[test]
    fn clamping_before_and_after() {
        let tr = NodeTrajectory::new(vec![sample(1.0, 1.0, 1.0), sample(2.0, 2.0, 2.0)]).unwrap();
        assert_eq!(tr.position_at(0.0).unwrap(), Point2::new(1.0, 1.0));
        assert_eq!(tr.position_at(5.0).unwrap(), Point2::new(2.0, 2.0));
    }

    #[test]
    fn teleport_is_not_interpolated() {
        let mut jump = sample(2.0, 100.0, 0.0);
        jump.teleport = true;
        let tr = NodeTrajectory::new(vec![sample(0.0, 0.0, 0.0), jump]).unwrap();
        // Just before the jump the node is still at the old position.
        let p = tr.position_at(1.999).unwrap();
        assert!((p.x - 0.0).abs() < 1e-9);
        // At/after the jump it is at the new one.
        assert_eq!(tr.position_at(2.0).unwrap(), Point2::new(100.0, 0.0));
    }

    #[test]
    fn max_speed_bounds_segment_rates() {
        let tr = NodeTrajectory::new(vec![
            sample(0.0, 0.0, 0.0),
            sample(1.0, 3.0, 4.0),  // 5 m in 1 s
            sample(3.0, 3.0, 24.0), // 20 m in 2 s
        ])
        .unwrap();
        assert!((tr.max_speed().unwrap() - 10.0).abs() < 1e-12);
        // Single-sample and empty trajectories are stationary.
        assert_eq!(
            NodeTrajectory::new(vec![sample(0.0, 1.0, 1.0)])
                .unwrap()
                .max_speed(),
            Some(0.0)
        );
        assert_eq!(NodeTrajectory::default().max_speed(), Some(0.0));
    }

    #[test]
    fn max_speed_is_unbounded_across_teleports() {
        let mut jump = sample(2.0, 100.0, 0.0);
        jump.teleport = true;
        let tr = NodeTrajectory::new(vec![sample(0.0, 0.0, 0.0), jump]).unwrap();
        assert_eq!(tr.max_speed(), None);
        let trace = MobilityTrace::from_trajectories(vec![
            NodeTrajectory::new(vec![sample(0.0, 0.0, 0.0), sample(1.0, 1.0, 0.0)]).unwrap(),
            tr,
        ]);
        assert_eq!(trace.max_speed(), None);
    }

    #[test]
    fn trace_max_speed_is_max_over_nodes() {
        let trace = MobilityTrace::from_trajectories(vec![
            NodeTrajectory::new(vec![sample(0.0, 0.0, 0.0), sample(1.0, 2.0, 0.0)]).unwrap(),
            NodeTrajectory::new(vec![sample(0.0, 0.0, 0.0), sample(1.0, 0.0, 7.0)]).unwrap(),
        ]);
        assert!((trace.max_speed().unwrap() - 7.0).abs() < 1e-12);
        assert_eq!(MobilityTrace::default().max_speed(), Some(0.0));
    }

    #[test]
    fn empty_trajectory_has_no_position() {
        let tr = NodeTrajectory::default();
        assert!(tr.position_at(0.0).is_none());
        assert!(tr.is_empty());
        assert_eq!(tr.mean_speed(), 0.0);
    }

    #[test]
    fn trace_generation_from_closed_lane() {
        let params = NasParams::builder()
            .length(400)
            .density(0.075)
            .build()
            .unwrap();
        let lane = Lane::with_uniform_placement(params, Boundary::Closed, 1).unwrap();
        let geometry = LaneGeometry::ring_circle(params.length_m());
        let trace = TraceGenerator::new(geometry).steps(50).generate(lane);
        assert_eq!(trace.node_count(), 30);
        assert!((trace.duration() - 50.0).abs() < 1e-9);
        for (_, tr) in trace.iter() {
            assert_eq!(tr.len(), 51);
            // No teleports on a closed geometry.
            assert!(tr.samples().iter().all(|s| !s.teleport));
        }
    }

    #[test]
    fn recycling_lane_on_straight_geometry_has_teleports() {
        let params = NasParams::builder()
            .length(60)
            .density(0.1)
            .build()
            .unwrap();
        let lane = Lane::with_uniform_placement(params, Boundary::Recycling, 1).unwrap();
        let trace = TraceGenerator::new(LaneGeometry::straight_x())
            .steps(200)
            .generate(lane);
        let teleports: usize = trace
            .iter()
            .map(|(_, tr)| tr.samples().iter().filter(|s| s.teleport).count())
            .sum();
        assert!(teleports > 0, "recycling on a straight line must teleport");
    }

    #[test]
    fn sample_every_thins_output() {
        let params = NasParams::builder()
            .length(100)
            .density(0.1)
            .build()
            .unwrap();
        let lane = Lane::with_uniform_placement(params, Boundary::Closed, 1).unwrap();
        let trace = TraceGenerator::new(LaneGeometry::ring_circle(750.0))
            .steps(100)
            .sample_every(10)
            .generate(lane);
        assert_eq!(trace.node(0).unwrap().len(), 11);
    }

    #[test]
    fn positions_stay_on_ring() {
        let params = NasParams::builder()
            .length(400)
            .density(0.075)
            .build()
            .unwrap();
        let lane = Lane::with_uniform_placement(params, Boundary::Closed, 3).unwrap();
        let circumference = params.length_m();
        let trace = TraceGenerator::new(LaneGeometry::ring_circle(circumference))
            .steps(30)
            .generate(lane);
        let r = circumference / std::f64::consts::TAU;
        let c = Point2::new(r, r);
        for (_, tr) in trace.iter() {
            for s in tr.samples() {
                assert!((s.position.distance(&c) - r).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn nan_query_time_is_a_typed_error() {
        // A NaN fails both clamps and sorts past either end under
        // `total_cmp`, depending on its sign; the segment lookup must not
        // index out of bounds for either.
        let one = NodeTrajectory::new(vec![sample(0.0, 1.0, 1.0)]).unwrap();
        let two = NodeTrajectory::new(vec![sample(0.0, 0.0, 0.0), sample(1.0, 1.0, 0.0)]).unwrap();
        let trace = MobilityTrace::from_trajectories(vec![two.clone(), one.clone()]);
        for t in [f64::NAN, -f64::NAN] {
            assert_eq!(one.position_at(t), None);
            assert_eq!(two.position_at(t), None);
            assert_eq!(two.position_at_hinted(t, &mut 0), None);
            for id in 0..2 {
                assert!(matches!(
                    trace.position_at(id, t),
                    Err(MobilityError::InvalidParameter { .. })
                ));
            }
            assert!(matches!(
                trace.positions_into(2, t, &mut Vec::new()),
                Err(MobilityError::InvalidParameter { .. })
            ));
            assert!(trace.positions_at(t).is_empty());
        }
    }

    #[test]
    fn hint_is_tested_in_total_cmp_order() {
        // Under `total_cmp`, -0 sorts before the +0 sample, so it belongs to
        // the segment before the jump, where the node has not moved yet.
        let mut jump = sample(0.0, 100.0, 0.0);
        jump.teleport = true;
        let tr = NodeTrajectory::new(vec![sample(-1.0, 0.0, 0.0), jump, sample(1.0, 200.0, 0.0)])
            .unwrap();
        let before = Some(Point2::new(0.0, 0.0));
        assert_eq!(tr.position_at(-0.0), before);
        for mut hint in [0, 1, 2, usize::MAX] {
            assert_eq!(tr.position_at_hinted(-0.0, &mut hint), before);
            assert_eq!(hint, 0);
        }
    }

    #[test]
    fn bulk_sampling_reports_the_first_unplaceable_node() {
        let placed = NodeTrajectory::new(vec![sample(0.0, 1.0, 1.0)]).unwrap();
        let trace = MobilityTrace::from_trajectories(vec![placed, NodeTrajectory::default()]);
        let mut out = Vec::new();
        trace.positions_into(1, 0.0, &mut out).unwrap();
        assert_eq!(out, vec![Point2::new(1.0, 1.0)]);
        for n in [2, 3] {
            assert_eq!(
                trace.positions_into(n, 0.0, &mut out),
                Err(MobilityError::UnknownNode { node: 1 })
            );
        }
        let short = MobilityTrace::from_trajectories(vec![trace.node(0).unwrap().clone()]);
        assert_eq!(
            short.positions_into(2, 0.0, &mut out),
            Err(MobilityError::UnknownNode { node: 1 })
        );
    }

    #[test]
    fn clones_share_the_trajectories() {
        let params = NasParams::builder()
            .length(100)
            .density(0.1)
            .build()
            .unwrap();
        let lane = Lane::with_uniform_placement(params, Boundary::Closed, 1).unwrap();
        let trace = TraceGenerator::new(LaneGeometry::ring_circle(750.0))
            .steps(10)
            .generate(lane);
        let copy = trace.clone();
        assert!(std::ptr::eq(trace.node(0).unwrap(), copy.node(0).unwrap()));
        assert_eq!(copy, trace);
    }

    #[test]
    fn unknown_node_errors() {
        let trace = MobilityTrace::default();
        assert!(matches!(
            trace.position_at(0, 0.0),
            Err(MobilityError::UnknownNode { node: 0 })
        ));
    }

    #[test]
    fn multilane_trace_covers_all_vehicles() {
        use cavenet_ca::{MultiLaneParams, MultiLaneRoad};
        let nas = NasParams::builder()
            .length(100)
            .vehicle_count(10)
            .build()
            .unwrap();
        let road = MultiLaneRoad::new(MultiLaneParams::new(nas, 2, 0.5).unwrap(), 4).unwrap();
        let g0 = LaneGeometry::ring_circle(750.0);
        let g1 = LaneGeometry::ring_circle(760.0);
        let trace = TraceGenerator::new(g0)
            .steps(20)
            .generate_multilane(road, &[g0, g1]);
        assert_eq!(trace.node_count(), 20);
        for (_, tr) in trace.iter() {
            assert_eq!(tr.len(), 21);
        }
    }

    #[test]
    fn positions_at_returns_all_nodes() {
        let params = NasParams::builder()
            .length(100)
            .density(0.05)
            .build()
            .unwrap();
        let lane = Lane::with_uniform_placement(params, Boundary::Closed, 1).unwrap();
        let trace = TraceGenerator::new(LaneGeometry::ring_circle(750.0))
            .steps(10)
            .generate(lane);
        let snap = trace.positions_at(5.0);
        assert_eq!(snap.len(), 5);
    }

    /// A trajectory of 1–23 samples, sample `zero_at` at time zero (of the
    /// sign `negative_zero` picks, so `total_cmp`'s -0 < +0 gets exercised)
    /// and the rest on either side of it. Each gap is a whole second (`kind`
    /// 0–1, the common grid every generated trace shares), a random
    /// fraction (2) or a sliver (3); `jump` makes the sample a teleport.
    fn trajectory_strategy() -> impl Strategy<Value = NodeTrajectory> {
        let sample = (
            0u8..4,
            0.0f64..1.0,
            any::<bool>(),
            -1e3f64..1e3,
            -1e3f64..1e3,
        );
        (
            prop::collection::vec(sample, 1..24),
            any::<usize>(),
            any::<bool>(),
        )
            .prop_map(|(raw, zero_at, negative_zero)| {
                let gap = |(kind, frac, ..): (u8, f64, bool, f64, f64)| match kind {
                    0 | 1 => 1.0,
                    2 => 0.001 + frac,
                    _ => 1e-6,
                };
                let zero_at = zero_at % raw.len();
                let mut times = vec![if negative_zero { -0.0 } else { 0.0 }; raw.len()];
                for j in (0..zero_at).rev() {
                    times[j] = times[j + 1] - gap(raw[j]);
                }
                for j in zero_at + 1..raw.len() {
                    times[j] = times[j - 1] + gap(raw[j]);
                }
                let samples = raw
                    .iter()
                    .zip(times)
                    .map(|(&(_, _, jump, x, y), time)| TraceSample {
                        time,
                        position: Point2::new(x, y),
                        speed: 0.0,
                        teleport: jump,
                    })
                    .collect();
                NodeTrajectory::new(samples).expect("strictly increasing times")
            })
    }

    /// A query time for `tr`, and the sample it was drawn near: on sample
    /// `i` (`kind` 0), on the zero sample with its sign flipped (1), inside
    /// segment `i` (2), anywhere from 10 s before to 10 s after the samples
    /// (3), a zero of either sign (4), an infinity (5) or a NaN of either
    /// sign (6).
    fn query(tr: &NodeTrajectory, kind: u8, pick: usize, u: f64) -> (f64, usize) {
        let s = tr.samples();
        let (first, last) = (s[0].time, s[s.len() - 1].time);
        let i = pick % s.len();
        let zero = s.iter().position(|x| x.time == 0.0).unwrap_or(i);
        let t = match kind {
            0 => s[i].time,
            1 => return (-s[zero].time, zero),
            2 if i + 1 < s.len() => s[i].time + u * (s[i + 1].time - s[i].time),
            2 => last + u,
            3 => first - 10.0 + u * (last - first + 20.0),
            4 => [0.0, -0.0][pick % 2],
            5 => [f64::INFINITY, f64::NEG_INFINITY][pick % 2],
            _ => [f64::NAN, -f64::NAN][pick % 2],
        };
        (t, i)
    }

    fn bits(p: Option<Point2>) -> Option<(u64, u64)> {
        p.map(|p| (p.x.to_bits(), p.y.to_bits()))
    }

    proptest! {
        // At least 512 cases; `PROPTEST_CASES` raises it (CI runs 4096).
        #![proptest_config(ProptestConfig::with_cases(ProptestConfig::default().cases.max(512)))]
        #[test]
        fn hinted_lookup_equals_reference(
            tr in trajectory_strategy(),
            kind in 0u8..7,
            pick in any::<usize>(),
            u in 0.0f64..1.0,
            mode in 0u8..4,
            raw in any::<usize>(),
        ) {
            let (t, near) = query(&tr, kind, pick, u);
            // Any hint at all, a small one, or one within a segment of the
            // query, where an off-by-one would show.
            let hint = match mode {
                0 => raw,
                1 => raw % 32,
                _ => (near + raw % 3).wrapping_sub(1),
            };
            let expected = bits(tr.position_at(t));
            let mut left = hint;
            prop_assert_eq!(bits(tr.position_at_hinted(t, &mut left)), expected);
            // The hint left behind is good for the same query again.
            let mut again = left;
            prop_assert_eq!(bits(tr.position_at_hinted(t, &mut again)), expected);
            prop_assert_eq!(again, left);
        }

        #[test]
        fn bulk_sampling_equals_reference(
            nodes in prop::collection::vec(trajectory_strategy(), 1..12),
            kind in 0u8..7,
            pick in any::<usize>(),
            u in 0.0f64..1.0,
        ) {
            let (t, _) = query(&nodes[pick % nodes.len()], kind, pick / 7, u);
            let n = nodes.len();
            let trace = MobilityTrace::from_trajectories(nodes);
            let reference: Result<Vec<Point2>, MobilityError> =
                (0..n).map(|id| trace.position_at(id, t)).collect();
            let mut out = vec![Point2::new(1.0, 1.0)];
            let bulk = trace.positions_into(n, t, &mut out).map(|()| out);
            prop_assert_eq!(
                bulk.map(|ps| ps.into_iter().map(|p| bits(Some(p))).collect::<Vec<_>>()),
                reference.map(|ps| ps.into_iter().map(|p| bits(Some(p))).collect::<Vec<_>>())
            );
            let all: Vec<(usize, Option<(u64, u64)>)> = trace
                .positions_at(t)
                .into_iter()
                .map(|(id, p)| (id, bits(Some(p))))
                .collect();
            let each: Vec<(usize, Option<(u64, u64)>)> = (0..n)
                .filter_map(|id| trace.position_at(id, t).ok().map(|p| (id, bits(Some(p)))))
                .collect();
            prop_assert_eq!(all, each);
        }
    }
}
