//! Adapts a BA-block mobility trace to the CPS-block position interface —
//! the in-process equivalent of the paper's ns-2 trace file hand-off.

use std::time::Duration;

use cavenet_mobility::MobilityTrace;
use cavenet_net::{MobilityModel, PositionEpoch, SimTime};

/// A [`MobilityModel`] backed by a sampled [`MobilityTrace`].
///
/// Positions between samples are linearly interpolated; before the first
/// and after the last sample they clamp (nodes park at the trace edges).
///
/// With [`TraceMobility::quantized`], the model declares piecewise-constant
/// [`PositionEpoch::Step`] epochs of the given width: every transmission in
/// an epoch then reads the positions at the epoch's start instead of at its
/// own instant — the natural choice when the quantum matches the underlying
/// CA step, since the trace only holds new information once per step
/// anyway.
#[derive(Debug, Clone)]
pub struct TraceMobility {
    trace: MobilityTrace,
    quantum: Option<Duration>,
    /// Displacement-rate bound over the whole trace, computed once at
    /// construction ([`MobilityTrace::max_speed`]); `None` when a teleport
    /// makes the rate unbounded.
    max_speed: Option<f64>,
}

impl TraceMobility {
    /// Wrap a trace with exact (continuous) position resolution.
    pub fn new(trace: MobilityTrace) -> Self {
        let max_speed = trace.max_speed();
        TraceMobility {
            trace,
            quantum: None,
            max_speed,
        }
    }

    /// Wrap a trace, declaring positions constant within steps of width
    /// `quantum` (see the type-level docs). A zero quantum behaves like
    /// [`TraceMobility::new`].
    pub fn quantized(trace: MobilityTrace, quantum: Duration) -> Self {
        let max_speed = trace.max_speed();
        TraceMobility {
            trace,
            quantum: (!quantum.is_zero()).then_some(quantum),
            max_speed,
        }
    }

    /// The wrapped trace.
    pub fn trace(&self) -> &MobilityTrace {
        &self.trace
    }

    /// The epoch quantum, if positions are step-quantized.
    pub fn quantum(&self) -> Option<Duration> {
        self.quantum
    }

    /// Fallback when `position_at` fails for `index` (out-of-range id or a
    /// trajectory with no samples): park the node on the nearest node id
    /// that does resolve, rather than conjuring a ghost station at the
    /// origin that would corrupt connectivity.
    fn nearest_valid_position(&self, index: usize, t: f64) -> (f64, f64) {
        let n = self.trace.node_count();
        if n == 0 {
            return (0.0, 0.0);
        }
        // Out-of-range ids first clamp to the last trajectory, then the
        // search widens over ids that might still resolve.
        let anchor = index.min(n - 1);
        for step in 0..=n {
            let below = anchor.checked_sub(step);
            let above = (anchor + step < n).then_some(anchor + step);
            for cand in [below, above].into_iter().flatten() {
                if let Ok(p) = self.trace.position_at(cand, t) {
                    return (p.x, p.y);
                }
            }
        }
        (0.0, 0.0)
    }
}

impl From<MobilityTrace> for TraceMobility {
    fn from(trace: MobilityTrace) -> Self {
        TraceMobility::new(trace)
    }
}

impl MobilityModel for TraceMobility {
    fn position(&self, index: usize, t: SimTime) -> (f64, f64) {
        match self.trace.position_at(index, t.as_secs_f64()) {
            Ok(p) => (p.x, p.y),
            Err(err) => {
                debug_assert!(
                    false,
                    "mobility trace lookup failed for node {index} at t={}s: {err:?}",
                    t.as_secs_f64()
                );
                self.nearest_valid_position(index, t.as_secs_f64())
            }
        }
    }

    fn node_count(&self) -> usize {
        self.trace.node_count()
    }

    /// One bulk [`MobilityTrace::positions_of`]: on frames, `t` is located
    /// once for all ids. Should any id fail, every id takes the per-id path
    /// and its fallback.
    fn positions_of(&self, ids: &[usize], t: SimTime, out: &mut Vec<(f64, f64)>) {
        out.clear();
        let bulk = self
            .trace
            .positions_of(ids, t.as_secs_f64(), |p| out.push((p.x, p.y)));
        if bulk.is_err() {
            out.clear();
            out.extend(ids.iter().map(|&i| self.position(i, t)));
        }
    }

    fn epoch(&self, t: SimTime) -> PositionEpoch {
        match self.quantum {
            None => PositionEpoch::Continuous,
            Some(q) => {
                let q_ns = q.as_nanos().min(u64::MAX as u128) as u64;
                let id = t.as_nanos() / q_ns;
                PositionEpoch::Step {
                    id,
                    start: SimTime::from_nanos(id * q_ns),
                }
            }
        }
    }

    fn max_speed(&self) -> Option<f64> {
        self.max_speed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cavenet_ca::{Boundary, Lane, NasParams};
    use cavenet_mobility::{LaneGeometry, NodeTrajectory, Point2, TraceGenerator, TraceSample};

    fn trace() -> MobilityTrace {
        let params = NasParams::builder()
            .length(400)
            .density(0.075)
            .build()
            .unwrap();
        let lane = Lane::with_uniform_placement(params, Boundary::Closed, 1).unwrap();
        TraceGenerator::new(LaneGeometry::ring_circle(3000.0))
            .steps(100)
            .generate(lane)
    }

    #[test]
    fn node_count_matches_trace() {
        let m = TraceMobility::new(trace());
        assert_eq!(m.node_count(), 30);
    }

    #[test]
    fn positions_move_over_time() {
        let m = TraceMobility::new(trace());
        let a = m.position(0, SimTime::from_secs(10));
        let b = m.position(0, SimTime::from_secs(60));
        let d = ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt();
        assert!(d > 1.0, "vehicle should have moved, got {d} m");
    }

    #[test]
    fn positions_clamp_past_trace_end() {
        let m = TraceMobility::new(trace());
        let a = m.position(3, SimTime::from_secs(100));
        let b = m.position(3, SimTime::from_secs(1000));
        assert_eq!(a, b);
    }

    #[test]
    fn interpolation_is_smooth() {
        let m = TraceMobility::new(trace());
        // Positions a half-second apart differ by at most vmax·0.5 ≈ 19 m.
        let a = m.position(5, SimTime::from_millis(10_000));
        let b = m.position(5, SimTime::from_millis(10_500));
        let d = ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt();
        assert!(d <= 19.0, "interpolated step too large: {d} m");
    }

    #[test]
    fn default_epoch_is_continuous() {
        let m = TraceMobility::new(trace());
        assert_eq!(m.quantum(), None);
        assert_eq!(m.epoch(SimTime::from_secs(3)), PositionEpoch::Continuous);
    }

    #[test]
    fn quantized_trace_reports_step_epochs() {
        let m = TraceMobility::quantized(trace(), Duration::from_secs(1));
        assert_eq!(
            m.epoch(SimTime::from_millis(2_500)),
            PositionEpoch::Step {
                id: 2,
                start: SimTime::from_secs(2)
            }
        );
        // Epoch boundaries are half-open: t = 3 s starts epoch 3.
        assert_eq!(
            m.epoch(SimTime::from_secs(3)),
            PositionEpoch::Step {
                id: 3,
                start: SimTime::from_secs(3)
            }
        );
        // A zero quantum degrades to continuous sampling.
        let z = TraceMobility::quantized(trace(), Duration::ZERO);
        assert_eq!(z.epoch(SimTime::from_secs(1)), PositionEpoch::Continuous);
    }

    #[test]
    fn trace_mobility_reports_finite_speed_bound() {
        let m = TraceMobility::new(trace());
        let v = m.max_speed().expect("closed-ring trace has no teleports");
        // NaS vehicles top out at vmax cells per step; the embedded bound
        // must be positive (they move) and physically sane.
        assert!(v > 0.0 && v < 60.0, "CA ring speed bound {v} m/s");
        // The bound really does cap observed displacement over an interval.
        let a = m.position(5, SimTime::from_millis(10_000));
        let b = m.position(5, SimTime::from_millis(10_500));
        let d = ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt();
        assert!(d <= v * 0.5 + 1e-9, "moved {d} m in 0.5 s, bound {v} m/s");
    }

    /// A trace whose node 1 has no samples (e.g. a malformed hand-off).
    fn trace_with_gap() -> MobilityTrace {
        let sample = |time: f64, x: f64| TraceSample {
            time,
            position: Point2::new(x, 0.0),
            speed: 0.0,
            teleport: false,
        };
        MobilityTrace::from_trajectories(vec![
            NodeTrajectory::new(vec![sample(0.0, 10.0), sample(1.0, 20.0)]).unwrap(),
            NodeTrajectory::default(),
            NodeTrajectory::new(vec![sample(0.0, 90.0), sample(1.0, 80.0)]).unwrap(),
        ])
    }

    #[test]
    fn ghost_node_clamps_to_nearest_valid_trajectory() {
        let m = TraceMobility::new(trace_with_gap());
        // Node 1 has no samples; the nearest resolvable id is node 0.
        assert_eq!(m.nearest_valid_position(1, 0.0), (10.0, 0.0));
        // Out-of-range ids clamp to the last valid trajectory.
        assert_eq!(m.nearest_valid_position(7, 0.0), (90.0, 0.0));
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "mobility trace lookup failed")
    )]
    fn ghost_node_position_asserts_in_debug_builds() {
        let m = TraceMobility::new(trace_with_gap());
        // In release builds this exercises the clamping fallback instead.
        assert_eq!(m.position(1, SimTime::ZERO), (10.0, 0.0));
    }
}
