//! Mobility traces: sampled node trajectories with interpolation.

use std::fmt;
use std::sync::{Arc, OnceLock};

use cavenet_ca::{Lane, MultiLaneRoad};
use cavenet_rng::fnv::Fnv64;

use crate::{LaneGeometry, MobilityError, Point2};

mod frames;

use frames::Frames;

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
        let samples = &self.samples;
        let (first, last) = (samples.first()?, samples.last()?);
        if t <= first.time {
            return Some(first.position);
        }
        if t >= last.time {
            return Some(last.position);
        }
        let i = segment_of(samples, t, |s| s.time)?;
        let a = &samples[i];
        let b = &samples[i + 1];
        if b.teleport {
            return Some(a.position);
        }
        let w = (t - a.time) / (b.time - a.time);
        Some(lerp(a.position, b.position, w))
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

/// The segment of `samples` (timed by `time`) that holds `t`: the index of
/// the last sample at or before `t` in `total_cmp` order, when a later
/// sample follows it. `None` when `t` sorts outside the samples, which past
/// the clamps at the first and last time only a NaN of either sign does.
fn segment_of<S>(samples: &[S], t: f64, time: impl Fn(&S) -> f64) -> Option<usize> {
    let i = match samples.binary_search_by(|s| time(s).total_cmp(&t)) {
        Ok(i) => i,
        Err(i) => i.checked_sub(1)?,
    };
    (i + 1 < samples.len()).then_some(i)
}

/// `a + w·(b − a)` per axis: the one interpolation every sampler uses.
#[inline]
fn lerp(a: Point2, b: Point2, w: f64) -> Point2 {
    Point2::new(a.x + w * (b.x - a.x), a.y + w * (b.y - a.y))
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
/// The input picks the layout. When every node holds the same number of
/// samples at bit-identical times, as every generated trace and both jam
/// rings do, the trace is stored as frames: one shared time vector and,
/// per frame, every node's position in node order. Sampling all nodes at
/// one time is then one segment search and a contiguous pass over two
/// frames. Nodes sampled at times of their own, such as an ns-2 import or
/// an open road, keep one trajectory each. Both layouts answer every
/// query bit for bit as [`NodeTrajectory::position_at`] would.
///
/// A built trace is never mutated, so its storage sits behind an [`Arc`]:
/// cloning a trace (with the scenario that holds it, or into a fluid
/// engine) shares it rather than copying every sample.
///
/// `Debug` prints the node count, the sample count and a fingerprint of
/// the samples, not the samples: checkpoint and campaign identities hash a
/// scenario's `Debug` rendering.
#[derive(Clone, Default)]
pub struct MobilityTrace {
    shared: Arc<Shared>,
}

#[derive(Default)]
struct Shared {
    layout: Layout,
    /// [`MobilityTrace::fingerprint`], computed on first use.
    fingerprint: OnceLock<u64>,
}

#[derive(PartialEq)]
enum Layout {
    /// Every node sampled at the same times.
    Frames(Frames),
    /// Nodes sampled at times of their own.
    Nodes(Box<[NodeTrajectory]>),
}

impl Default for Layout {
    fn default() -> Self {
        Layout::Frames(Frames::default())
    }
}

impl PartialEq for MobilityTrace {
    /// Equal samples, node by node; the cached fingerprint plays no part.
    fn eq(&self, other: &Self) -> bool {
        self.shared.layout == other.shared.layout
    }
}

impl fmt::Debug for MobilityTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MobilityTrace")
            .field("nodes", &self.node_count())
            .field("samples", &self.sample_count())
            .field("fingerprint", &format_args!("{:#018x}", self.fingerprint()))
            .finish()
    }
}

impl MobilityTrace {
    /// Build from per-node trajectories: as frames when every node holds
    /// the same number of samples at bit-identical times, else as given.
    pub fn from_trajectories(nodes: Vec<NodeTrajectory>) -> Self {
        let layout = match Frames::transpose(nodes) {
            Ok(frames) => Layout::Frames(frames),
            Err(nodes) => Layout::Nodes(nodes.into()),
        };
        MobilityTrace::with_layout(layout)
    }

    fn with_layout(layout: Layout) -> Self {
        MobilityTrace {
            shared: Arc::new(Shared {
                layout,
                fingerprint: OnceLock::new(),
            }),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        match &self.shared.layout {
            Layout::Frames(f) => f.nodes(),
            Layout::Nodes(nodes) => nodes.len(),
        }
    }

    /// Total number of samples over all nodes.
    fn sample_count(&self) -> usize {
        match &self.shared.layout {
            Layout::Frames(f) => f.nodes() * f.len(),
            Layout::Nodes(nodes) => nodes.iter().map(NodeTrajectory::len).sum(),
        }
    }

    /// FNV-1a over every node's sample count and samples (time, x, y and
    /// speed bits, teleport flag), node by node, whatever the layout.
    fn fingerprint(&self) -> u64 {
        *self.shared.fingerprint.get_or_init(|| {
            let mut h = Fnv64::new();
            for (_, tr) in self.iter() {
                h.write(&(tr.len() as u64).to_le_bytes());
                for s in tr.samples() {
                    for v in [s.time, s.position.x, s.position.y, s.speed] {
                        h.write(&v.to_bits().to_le_bytes());
                    }
                    h.write(&[u8::from(s.teleport)]);
                }
            }
            h.finish()
        })
    }

    /// The trajectory of node `id`, built from the trace's storage.
    ///
    /// # Errors
    ///
    /// Returns [`MobilityError::UnknownNode`] for an out-of-range id.
    pub fn node(&self, id: usize) -> Result<NodeTrajectory, MobilityError> {
        match &self.shared.layout {
            Layout::Frames(f) if id < f.nodes() => Ok(f.node(id)),
            Layout::Nodes(nodes) if id < nodes.len() => Ok(nodes[id].clone()),
            _ => Err(MobilityError::UnknownNode { node: id }),
        }
    }

    /// Iterate over `(node_id, trajectory)`, each trajectory built as
    /// [`node`](Self::node) builds it.
    pub fn iter(&self) -> impl Iterator<Item = (usize, NodeTrajectory)> + '_ {
        (0..self.node_count()).filter_map(|id| self.node(id).ok().map(|tr| (id, tr)))
    }

    /// Position of node `id` at time `t` (interpolated).
    ///
    /// # Errors
    ///
    /// Returns [`MobilityError::UnknownNode`] for an out-of-range id or a
    /// node with no samples, and [`MobilityError::InvalidParameter`] for a
    /// NaN `t`.
    pub fn position_at(&self, id: usize, t: f64) -> Result<Point2, MobilityError> {
        let p = match &self.shared.layout {
            Layout::Frames(f) if id < f.nodes() => f.locate(t).map(|at| f.point(at, id)),
            Layout::Nodes(nodes) if id < nodes.len() => nodes[id].position_at(t),
            _ => return Err(MobilityError::UnknownNode { node: id }),
        };
        p.ok_or_else(|| unresolved(id, t))
    }

    /// Positions of nodes `0..n` at time `t`, written into `out` (cleared
    /// first): the per-node [`position_at`](Self::position_at) in one pass,
    /// bit for bit. On frames that is one segment search and a contiguous
    /// pass over the two frames around `t`.
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
        match &self.shared.layout {
            Layout::Frames(f) => {
                // Every node of a frame trace resolves `t` alike, so the
                // lowest id without a position is node 0 or the first id
                // past the trace.
                if n == 0 {
                    return Ok(());
                }
                if f.nodes() == 0 {
                    return Err(MobilityError::UnknownNode { node: 0 });
                }
                let at = f.locate(t).ok_or_else(|| unresolved(0, t))?;
                f.points_into(at, n.min(f.nodes()), out);
                if n > f.nodes() {
                    return Err(MobilityError::UnknownNode { node: f.nodes() });
                }
            }
            Layout::Nodes(_) => {
                for id in 0..n {
                    out.push(self.position_at(id, t)?);
                }
            }
        }
        Ok(())
    }

    /// Positions of nodes `ids` at time `t`, handed to `put` in the order
    /// of `ids`: the per-node [`position_at`](Self::position_at) of each
    /// id, bit for bit. On frames that is one segment search for all ids
    /// and a read of the two frames around `t` per id.
    ///
    /// # Errors
    ///
    /// The error [`position_at`](Self::position_at) gives for the first id
    /// in `ids` without a position; `put` has seen the ids before it.
    pub fn positions_of(
        &self,
        ids: &[usize],
        t: f64,
        mut put: impl FnMut(Point2),
    ) -> Result<(), MobilityError> {
        match &self.shared.layout {
            Layout::Frames(f) => {
                let at = f.locate(t);
                for &id in ids {
                    if id >= f.nodes() {
                        return Err(MobilityError::UnknownNode { node: id });
                    }
                    put(f.point(at.ok_or_else(|| unresolved(id, t))?, id));
                }
            }
            Layout::Nodes(_) => {
                for &id in ids {
                    put(self.position_at(id, t)?);
                }
            }
        }
        Ok(())
    }

    /// Largest sample time across all nodes (0 if the trace is empty).
    pub fn duration(&self) -> f64 {
        match &self.shared.layout {
            Layout::Frames(f) => f.duration(),
            Layout::Nodes(nodes) => nodes
                .iter()
                .filter_map(|n| n.samples().last())
                .map(|s| s.time)
                .fold(0.0, f64::max),
        }
    }

    /// Upper bound on any node's displacement rate in metres per second
    /// (see [`NodeTrajectory::max_speed`]); `None` if any trajectory
    /// teleports. An empty trace is vacuously stationary (`Some(0.0)`).
    pub fn max_speed(&self) -> Option<f64> {
        match &self.shared.layout {
            Layout::Frames(f) => f.max_speed(),
            Layout::Nodes(nodes) => nodes
                .iter()
                .try_fold(0.0f64, |acc, n| n.max_speed().map(|v| acc.max(v))),
        }
    }

    /// All node positions at time `t` (nodes with no samples are skipped).
    pub fn positions_at(&self, t: f64) -> Vec<(usize, Point2)> {
        (0..self.node_count())
            .filter_map(|id| self.position_at(id, t).ok().map(|p| (id, p)))
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
        // Closed and recycling lanes keep their vehicles and ids; open
        // lanes mint fresh ones while stepping.
        let mut rec = Recorder::new(
            lane.vehicles().iter().map(|v| v.id().0 as usize),
            lane.boundary().conserves_vehicles(),
            self.samples(),
        );
        let record = |lane: &Lane, rec: &mut Recorder| {
            let t = (lane.time() - t0) as f64 * dt;
            rec.start(t);
            for v in lane.vehicles() {
                let s_m = v.position() as f64 * cell_m;
                let teleport = v.wrapped_last_step() && !self.geometry.is_closed();
                rec.record(
                    v.id().0 as usize,
                    TraceSample {
                        time: t,
                        position: self.geometry.embed(s_m),
                        speed: lane.params().velocity_to_mps(v.velocity()),
                        teleport,
                    },
                );
            }
        };
        record(&lane, &mut rec);
        for step in 1..=self.steps {
            lane.step();
            if step % self.sample_every == 0 {
                record(&lane, &mut rec);
            }
        }
        rec.finish()
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
        // A multi-lane ring keeps its vehicles and ids.
        let mut rec = Recorder::new(
            road.snapshot().iter().map(|&(.., id)| id.0 as usize),
            true,
            self.samples(),
        );
        let record = |road: &MultiLaneRoad, rec: &mut Recorder| {
            let t = (road.time() - t0) as f64 * dt;
            rec.start(t);
            for (lane, pos, vel, id) in road.snapshot() {
                rec.record(
                    id.0 as usize,
                    TraceSample {
                        time: t,
                        position: geo(lane).embed(pos as f64 * cell_m),
                        speed: vel as f64 * cell_m / dt,
                        teleport: false,
                    },
                );
            }
        };
        record(&road, &mut rec);
        for step in 1..=self.steps {
            road.step();
            if step % self.sample_every == 0 {
                record(&road, &mut rec);
            }
        }
        rec.finish()
    }

    /// Samples per vehicle: the first, then one every `sample_every` steps.
    fn samples(&self) -> usize {
        1 + self.steps / self.sample_every
    }
}

/// Where a generator writes its samples: straight into frames when the
/// same vehicles, numbered `0..n`, are present at every sample, else into
/// one trajectory per vehicle id. Either way the trace equals
/// [`MobilityTrace::from_trajectories`] over the per-vehicle samples.
enum Recorder {
    Frames(Frames),
    Nodes(Vec<NodeTrajectory>),
}

impl Recorder {
    /// A recorder for the vehicles of ids `ids`, present now; `conserved`
    /// when the same vehicles stay for the whole run, each sampled
    /// `samples` times.
    fn new(mut ids: impl ExactSizeIterator<Item = usize>, conserved: bool, samples: usize) -> Self {
        let n = ids.len();
        let mut seen = vec![false; n];
        let dense = ids.all(|id| id < n && !std::mem::replace(&mut seen[id], true));
        if conserved && dense && n > 0 {
            Recorder::Frames(Frames::zeroed(n, samples))
        } else {
            Recorder::Nodes(Vec::new())
        }
    }

    /// Start the sample at `time`.
    fn start(&mut self, time: f64) {
        if let Recorder::Frames(f) = self {
            f.start(time);
        }
    }

    /// Record vehicle `id`'s sample at the started time.
    fn record(&mut self, id: usize, s: TraceSample) {
        match self {
            Recorder::Frames(f) => f.set(f.len() - 1, id, &s),
            Recorder::Nodes(nodes) => {
                if id >= nodes.len() {
                    nodes.resize(id + 1, NodeTrajectory::default());
                }
                nodes[id].push(s);
            }
        }
    }

    fn finish(self) -> MobilityTrace {
        match self {
            Recorder::Frames(f) => MobilityTrace::with_layout(Layout::Frames(f)),
            Recorder::Nodes(nodes) => MobilityTrace::from_trajectories(nodes),
        }
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

    fn is_frames(trace: &MobilityTrace) -> bool {
        matches!(trace.shared.layout, Layout::Frames(_))
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
        let nodes = MobilityTrace::from_trajectories(vec![two.clone(), one.clone()]);
        let frames = MobilityTrace::from_trajectories(vec![two.clone(), two.clone()]);
        assert!(is_frames(&frames) && !is_frames(&nodes));
        for t in [f64::NAN, -f64::NAN] {
            assert_eq!(one.position_at(t), None);
            assert_eq!(two.position_at(t), None);
            for trace in [&nodes, &frames] {
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
    }

    #[test]
    fn negative_zero_sorts_before_a_positive_zero_sample() {
        // Under `total_cmp`, -0 sorts before the +0 sample, so it belongs to
        // the segment before the jump, where the node has not moved yet:
        // per node and on the shared times of frames alike.
        let mut jump = sample(0.0, 100.0, 0.0);
        jump.teleport = true;
        let tr = NodeTrajectory::new(vec![sample(-1.0, 0.0, 0.0), jump, sample(1.0, 200.0, 0.0)])
            .unwrap();
        let before = Point2::new(0.0, 0.0);
        assert_eq!(tr.position_at(-0.0), Some(before));
        assert_eq!(tr.position_at(0.0), Some(Point2::new(100.0, 0.0)));
        let frames = MobilityTrace::from_trajectories(vec![tr.clone(), tr]);
        assert!(is_frames(&frames));
        assert_eq!(frames.position_at(1, -0.0), Ok(before));
        let mut out = Vec::new();
        frames.positions_into(2, -0.0, &mut out).unwrap();
        assert_eq!(out, vec![before; 2]);
    }

    #[test]
    fn equal_counts_at_other_times_stay_per_node() {
        let a = NodeTrajectory::new(vec![sample(0.0, 0.0, 0.0), sample(1.0, 10.0, 0.0)]).unwrap();
        let b = NodeTrajectory::new(vec![sample(0.0, 0.0, 0.0), sample(2.0, 10.0, 0.0)]).unwrap();
        let trace = MobilityTrace::from_trajectories(vec![a, b.clone()]);
        assert!(!is_frames(&trace));
        assert_eq!(trace.position_at(1, 1.0), Ok(Point2::new(5.0, 0.0)));
        // Alignment is bit for bit: -0 and +0 are different times.
        let c = NodeTrajectory::new(vec![sample(-0.0, 0.0, 0.0), sample(2.0, 10.0, 0.0)]).unwrap();
        assert!(!is_frames(&MobilityTrace::from_trajectories(vec![b, c])));
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
        let short = MobilityTrace::from_trajectories(vec![trace.node(0).unwrap()]);
        assert!(is_frames(&short));
        assert_eq!(
            short.positions_into(2, 0.0, &mut out),
            Err(MobilityError::UnknownNode { node: 1 })
        );
        // Nodes without samples align too; each is unplaceable.
        let empty = MobilityTrace::from_trajectories(vec![NodeTrajectory::default(); 2]);
        assert!(is_frames(&empty));
        assert_eq!(
            empty.positions_into(2, 0.0, &mut out),
            Err(MobilityError::UnknownNode { node: 0 })
        );
        assert!(matches!(
            empty.positions_into(2, f64::NAN, &mut out),
            Err(MobilityError::InvalidParameter { .. })
        ));
        assert_eq!(
            MobilityTrace::default().positions_into(1, f64::NAN, &mut out),
            Err(MobilityError::UnknownNode { node: 0 })
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
        assert!(Arc::ptr_eq(&trace.shared, &copy.shared));
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

    #[test]
    fn debug_prints_a_fingerprint_of_the_samples() {
        let n = 100_000;
        let nodes: Vec<NodeTrajectory> = (0..n)
            .map(|i| {
                let x = i as f64;
                NodeTrajectory::new(vec![sample(0.0, x, 0.0), sample(1.0, x, 1.0)]).unwrap()
            })
            .collect();
        let trace = MobilityTrace::from_trajectories(nodes.clone());
        assert!(is_frames(&trace));
        let text = format!("{trace:?}");
        assert!(text.len() < 256, "{text}");
        assert!(text.contains("nodes: 100000, samples: 200000"), "{text}");
        // The fingerprint is of the samples alone, whatever the layout.
        let per_node = MobilityTrace::with_layout(Layout::Nodes(nodes.into()));
        assert_eq!(format!("{per_node:?}"), text);
        // One ULP or flag of one sample moves it; equality ignores the cache.
        fn ulp(v: &mut f64) {
            *v = f64::from_bits(v.to_bits() + 1);
        }
        let nudges: [fn(&mut TraceSample); 4] = [
            |s| ulp(&mut s.position.x),
            |s| ulp(&mut s.position.y),
            |s| ulp(&mut s.speed),
            |s| s.teleport = !s.teleport,
        ];
        let small: Vec<NodeTrajectory> = trace.iter().take(100).map(|(_, tr)| tr).collect();
        let base = MobilityTrace::from_trajectories(small.clone());
        let text = format!("{base:?}");
        for nudge in nudges {
            let mut nodes = small.clone();
            nudge(&mut nodes[7].samples[1]);
            let nudged = MobilityTrace::from_trajectories(nodes);
            assert_ne!(nudged, base);
            assert_ne!(format!("{nudged:?}"), text);
        }
        let fresh = MobilityTrace::from_trajectories(small);
        assert_eq!(
            fresh, base,
            "one side cached its fingerprint, the other did not"
        );
    }

    /// The generator's recording loop as it was before frames: one
    /// trajectory per vehicle id, grown sample by sample.
    fn per_vehicle_samples(g: &TraceGenerator, mut lane: Lane) -> Vec<NodeTrajectory> {
        let cell_m = lane.params().cell_length_m();
        let dt = lane.params().dt_s();
        let t0 = if g.rebase_time { lane.time() } else { 0 };
        let mut nodes: Vec<NodeTrajectory> = Vec::new();
        let record = |lane: &Lane, nodes: &mut Vec<NodeTrajectory>| {
            let t = (lane.time() - t0) as f64 * dt;
            for v in lane.vehicles() {
                let id = v.id().0 as usize;
                if id >= nodes.len() {
                    nodes.resize(id + 1, NodeTrajectory::default());
                }
                let s_m = v.position() as f64 * cell_m;
                let teleport = v.wrapped_last_step() && !g.geometry.is_closed();
                nodes[id].push(TraceSample {
                    time: t,
                    position: g.geometry.embed(s_m),
                    speed: lane.params().velocity_to_mps(v.velocity()),
                    teleport,
                });
            }
        };
        record(&lane, &mut nodes);
        for step in 1..=g.steps {
            lane.step();
            if step % g.sample_every == 0 {
                record(&lane, &mut nodes);
            }
        }
        nodes
    }

    /// [`per_vehicle_samples`] for a multi-lane road.
    fn per_vehicle_road_samples(
        g: &TraceGenerator,
        mut road: MultiLaneRoad,
        geometries: &[LaneGeometry],
    ) -> Vec<NodeTrajectory> {
        let cell_m = road.params().nas.cell_length_m();
        let dt = road.params().nas.dt_s();
        let t0 = if g.rebase_time { road.time() } else { 0 };
        let geo = |k: usize| geometries.get(k).copied().unwrap_or(g.geometry);
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
        for step in 1..=g.steps {
            road.step();
            if step % g.sample_every == 0 {
                record(&road, &mut nodes);
            }
        }
        nodes
    }

    fn nas(length: usize, density: f64) -> NasParams {
        NasParams::builder()
            .length(length)
            .density(density)
            .slowdown_probability(0.3)
            .build()
            .unwrap()
    }

    #[test]
    fn generated_frames_equal_the_transposed_samples() {
        // A warmed-up closed ring, sampled every third step on the lane's
        // own clock, and a recycling straight lane, which teleports.
        let mut ring = Lane::with_random_placement(nas(400, 0.075), Boundary::Closed, 5).unwrap();
        for _ in 0..20 {
            ring.step();
        }
        let on_ring = TraceGenerator::new(LaneGeometry::ring_circle(400.0 * 7.5))
            .steps(40)
            .sample_every(3)
            .rebase_time(false);
        let line = Lane::with_uniform_placement(nas(60, 0.1), Boundary::Recycling, 1).unwrap();
        let on_line = TraceGenerator::new(LaneGeometry::straight_x()).steps(200);
        for (g, lane) in [(on_ring, ring), (on_line, line)] {
            let trace = g.generate(lane.clone());
            assert!(is_frames(&trace));
            let reference = MobilityTrace::from_trajectories(per_vehicle_samples(&g, lane));
            assert_eq!(trace, reference);
            assert_eq!(format!("{trace:?}"), format!("{reference:?}"));
            // Only the straight lane teleports, and its frames keep the jumps.
            assert_eq!(trace.max_speed().is_none(), !g.geometry.is_closed());
        }

        // A two-lane road with lane changes.
        use cavenet_ca::MultiLaneParams;
        let road =
            MultiLaneRoad::new(MultiLaneParams::new(nas(100, 0.1), 2, 0.5).unwrap(), 4).unwrap();
        let geometries = [
            LaneGeometry::ring_circle(750.0),
            LaneGeometry::ring_circle(760.0),
        ];
        let g = TraceGenerator::new(geometries[0]).steps(30);
        let trace = g.generate_multilane(road.clone(), &geometries);
        assert!(is_frames(&trace));
        assert_eq!(
            trace,
            MobilityTrace::from_trajectories(per_vehicle_road_samples(&g, road, &geometries))
        );
    }

    #[test]
    fn open_road_keeps_one_trajectory_per_vehicle() {
        let open = Boundary::Open {
            injection_rate: 0.5,
        };
        let lane = Lane::with_uniform_placement(nas(100, 0.1), open, 2).unwrap();
        let g = TraceGenerator::new(LaneGeometry::straight_x()).steps(100);
        let trace = g.generate(lane.clone());
        assert!(!is_frames(&trace));
        assert!(trace.node_count() > 10, "vehicles enter the open road");
        assert_eq!(
            trace,
            MobilityTrace::from_trajectories(per_vehicle_samples(&g, lane))
        );
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

    /// 1–69 nodes (so the teleport bits of a frame span one or two words)
    /// sampled on the time grid of one [`trajectory_strategy`] draw, with
    /// random positions and speeds. Teleports fall nowhere (`jumps` 0), on
    /// first samples only (1), or anywhere at one sample in four (2).
    fn aligned_strategy() -> impl Strategy<Value = Vec<NodeTrajectory>> {
        let raw = (-1e3f64..1e3, -1e3f64..1e3, 0.0f64..40.0, 0u8..4);
        (
            trajectory_strategy(),
            prop::collection::vec(prop::collection::vec(raw, 23), 1..70),
            0u8..3,
        )
            .prop_map(|(grid, nodes, jumps)| {
                nodes
                    .into_iter()
                    .map(|raw| {
                        let samples = grid
                            .samples()
                            .iter()
                            .zip(raw)
                            .enumerate()
                            .map(|(j, (g, (x, y, speed, dice)))| TraceSample {
                                time: g.time,
                                position: Point2::new(x, y),
                                speed,
                                teleport: dice == 0 && (jumps == 2 || jumps == 1 && j == 0),
                            })
                            .collect();
                        NodeTrajectory::new(samples).expect("the grid's times increase")
                    })
                    .collect()
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

    /// [`MobilityTrace::positions_of`] for `ids` against one
    /// [`MobilityTrace::position_at`] per id: the same points up to the
    /// first id without a position, and the same error there.
    fn check_positions_of(
        trace: &MobilityTrace,
        ids: &[usize],
        t: f64,
    ) -> Result<(), TestCaseError> {
        let mut seen = Vec::new();
        let bulk = trace.positions_of(ids, t, |p| seen.push(bits(Some(p))));
        let mut each = Vec::new();
        let mut first_error = Ok(());
        for &id in ids {
            match trace.position_at(id, t) {
                Ok(p) => each.push(bits(Some(p))),
                Err(e) => {
                    first_error = Err(e);
                    break;
                }
            }
        }
        prop_assert_eq!(bulk, first_error);
        prop_assert_eq!(seen, each);
        Ok(())
    }

    proptest! {
        // At least 512 cases; `PROPTEST_CASES` raises it (CI runs 4096).
        #![proptest_config(ProptestConfig::with_cases(ProptestConfig::default().cases.max(512)))]
        #[test]
        fn bulk_sampling_equals_reference(
            nodes in prop::collection::vec(trajectory_strategy(), 1..12),
            kind in 0u8..7,
            pick in any::<usize>(),
            u in 0.0f64..1.0,
            ids in prop::collection::vec(any::<usize>(), 0..24),
        ) {
            let (t, _) = query(&nodes[pick % nodes.len()], kind, pick / 7, u);
            let n = nodes.len();
            let trace = MobilityTrace::from_trajectories(nodes);
            let ids: Vec<usize> = ids.into_iter().map(|id| id % (n + 2)).collect();
            check_positions_of(&trace, &ids, t)?;
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

        #[test]
        fn frames_sampling_equals_reference(
            nodes in aligned_strategy(),
            kind in 0u8..7,
            pick in any::<usize>(),
            u in 0.0f64..1.0,
            count in any::<usize>(),
            ids in prop::collection::vec(any::<usize>(), 0..24),
        ) {
            let (t, _) = query(&nodes[0], kind, pick, u);
            let n = nodes.len();
            let trace = MobilityTrace::from_trajectories(nodes.clone());
            prop_assert!(is_frames(&trace));
            let ids: Vec<usize> = ids.into_iter().map(|id| id % (n + 2)).collect();
            check_positions_of(&trace, &ids, t)?;
            let reference = |id: usize| match nodes.get(id) {
                Some(tr) => tr.position_at(t).ok_or_else(|| unresolved(id, t)),
                None => Err(MobilityError::UnknownNode { node: id }),
            };
            let point = |p: Point2| (p.x.to_bits(), p.y.to_bits());
            for id in 0..n + 2 {
                prop_assert_eq!(trace.position_at(id, t).map(point), reference(id).map(point));
            }
            // Any prefix of the nodes, up to two past the last.
            let count = count % (n + 3);
            let mut out = vec![Point2::new(1.0, 1.0)];
            let bulk = trace
                .positions_into(count, t, &mut out)
                .map(|()| out.into_iter().map(point).collect::<Vec<_>>());
            let each: Result<Vec<_>, _> = (0..count).map(|id| reference(id).map(point)).collect();
            prop_assert_eq!(bulk, each);
            let all: Vec<_> = trace.positions_at(t).into_iter().map(|(id, p)| (id, point(p))).collect();
            let every: Vec<_> = (0..n)
                .filter_map(|id| reference(id).ok().map(|p| (id, point(p))))
                .collect();
            prop_assert_eq!(all, every);
            let max_speed = nodes
                .iter()
                .try_fold(0.0f64, |acc, tr| tr.max_speed().map(|v| acc.max(v)));
            prop_assert_eq!(trace.max_speed().map(f64::to_bits), max_speed.map(f64::to_bits));
            let duration = nodes
                .iter()
                .filter_map(|tr| tr.samples().last())
                .map(|s| s.time)
                .fold(0.0, f64::max);
            prop_assert_eq!(trace.duration().to_bits(), duration.to_bits());
            prop_assert_eq!(trace.iter().map(|(_, tr)| tr).collect::<Vec<_>>(), nodes);
        }
    }
}
