//! The Random Waypoint (RW) baseline mobility model.
//!
//! RW is "the earliest mobility model for ad-hoc networks" (paper §I): every
//! node repeatedly picks a uniform random destination in the simulation area
//! and a uniform random speed in `[v_min, v_max]`, travels there, optionally
//! pauses, and repeats. Simulated naively, the mean nodal speed *decays*
//! toward a lower steady-state value — the **velocity decay problem** — and
//! when `v_min = 0` the steady-state mean is 0 (harmonic-mean divergence).
//!
//! Le Boudec's Palm-calculus analysis shows the stationary speed
//! distribution is biased by `1/v` relative to the uniform sampling
//! distribution; starting each node with a speed drawn from the stationary
//! distribution removes the transient entirely. Both the naive and the
//! stationary ("perfect simulation") starts are implemented so the decay can
//! be demonstrated and eliminated — this is the contrast the paper draws
//! against the CA model, whose finite state space guarantees a unique
//! stationary regime.

use cavenet_rng::SimRng;

use crate::{MobilityError, MobilityTrace, NodeTrajectory, Point2, TraceSample};

/// Parameters of a Random Waypoint simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RwParams {
    /// Width of the rectangular area (metres).
    pub width: f64,
    /// Height of the rectangular area (metres).
    pub height: f64,
    /// Minimum waypoint speed (m/s); must be > 0 for a well-defined
    /// stationary regime.
    pub v_min: f64,
    /// Maximum waypoint speed (m/s).
    pub v_max: f64,
    /// Pause duration at each waypoint (seconds, may be 0).
    pub pause: f64,
    /// Number of nodes.
    pub nodes: usize,
}

impl RwParams {
    /// Validated constructor.
    ///
    /// # Errors
    ///
    /// Returns [`MobilityError::InvalidParameter`] if the area is empty,
    /// speeds are not `0 < v_min ≤ v_max`, the pause is negative, or there
    /// are no nodes.
    pub fn new(
        width: f64,
        height: f64,
        v_min: f64,
        v_max: f64,
        pause: f64,
        nodes: usize,
    ) -> Result<Self, MobilityError> {
        if width.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
            || height.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
        {
            return Err(MobilityError::InvalidParameter { name: "area" });
        }
        if v_min.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
            || v_max.partial_cmp(&v_min) == Some(std::cmp::Ordering::Less)
            || v_max.is_nan()
        {
            return Err(MobilityError::InvalidParameter { name: "speed" });
        }
        if pause.is_nan() || pause < 0.0 {
            return Err(MobilityError::InvalidParameter { name: "pause" });
        }
        if nodes == 0 {
            return Err(MobilityError::InvalidParameter { name: "nodes" });
        }
        Ok(RwParams {
            width,
            height,
            v_min,
            v_max,
            pause,
            nodes,
        })
    }
}

/// How the initial node speeds are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Start {
    /// Uniform speed sampling from step one — exhibits velocity decay.
    Naive,
    /// Stationary (Palm) speed sampling — "perfect simulation", no decay.
    Stationary,
}

/// A Random Waypoint mobility simulator.
#[derive(Debug, Clone)]
pub struct RandomWaypoint {
    params: RwParams,
    rng: SimRng,
    start: Start,
}

impl RandomWaypoint {
    /// Classical RW with naive uniform initial speeds (shows velocity
    /// decay).
    pub fn new(params: RwParams, seed: u64) -> Self {
        RandomWaypoint {
            params,
            rng: SimRng::seed_from_u64(seed),
            start: Start::Naive,
        }
    }

    /// RW started from the stationary (Palm) speed distribution, removing
    /// the transient (Le Boudec's perfect simulation).
    pub fn new_stationary(params: RwParams, seed: u64) -> Self {
        RandomWaypoint {
            params,
            rng: SimRng::seed_from_u64(seed),
            start: Start::Stationary,
        }
    }

    /// The parameters.
    pub fn params(&self) -> &RwParams {
        &self.params
    }

    /// Draw a leg speed. Uniform for ordinary legs; the first leg of a
    /// stationary start uses the `1/v`-biased density
    /// `f(v) ∝ 1/v on [v_min, v_max]` via inverse-CDF sampling.
    fn draw_speed(&mut self, first_leg: bool) -> f64 {
        let (lo, hi) = (self.params.v_min, self.params.v_max);
        if hi - lo < 1e-12 {
            return lo;
        }
        if first_leg && self.start == Start::Stationary {
            // CDF F(v) = ln(v/lo)/ln(hi/lo)  ⇒  v = lo·(hi/lo)^u.
            let u: f64 = self.rng.gen();
            lo * (hi / lo).powf(u)
        } else {
            self.rng.gen_range(lo..=hi)
        }
    }

    fn draw_point(&mut self) -> Point2 {
        Point2::new(
            self.rng.gen_range(0.0..self.params.width),
            self.rng.gen_range(0.0..self.params.height),
        )
    }

    /// Simulate for `duration` seconds, sampling every `dt` seconds.
    ///
    /// Returns the trace and the population mean-speed series (one entry per
    /// sample time) — the series whose slow decay constitutes the velocity
    /// decay problem.
    ///
    /// # Errors
    ///
    /// Returns [`MobilityError::InvalidParameter`] for non-positive
    /// `duration` or `dt`.
    pub fn simulate(
        &mut self,
        duration: f64,
        dt: f64,
    ) -> Result<(MobilityTrace, Vec<f64>), MobilityError> {
        if duration.is_nan() || duration <= 0.0 {
            return Err(MobilityError::InvalidParameter { name: "duration" });
        }
        if dt.is_nan() || dt <= 0.0 {
            return Err(MobilityError::InvalidParameter { name: "dt" });
        }
        let steps = (duration / dt).ceil() as usize;
        let n = self.params.nodes;

        struct NodeState {
            pos: Point2,
            dest: Point2,
            speed: f64,
            pause_left: f64,
        }
        let mut states: Vec<NodeState> = (0..n)
            .map(|_| {
                let pos = self.draw_point();
                let dest = self.draw_point();
                let speed = self.draw_speed(true);
                NodeState {
                    pos,
                    dest,
                    speed,
                    pause_left: 0.0,
                }
            })
            .collect();

        let mut trajectories: Vec<Vec<TraceSample>> = vec![Vec::new(); n];
        let mut mean_speed = Vec::with_capacity(steps + 1);

        for step in 0..=steps {
            let t = step as f64 * dt;
            let mut speed_sum = 0.0;
            for (i, st) in states.iter_mut().enumerate() {
                // Record sample.
                let moving = st.pause_left <= 0.0;
                trajectories[i].push(TraceSample {
                    time: t,
                    position: st.pos,
                    speed: if moving { st.speed } else { 0.0 },
                    teleport: false,
                });
                speed_sum += if moving { st.speed } else { 0.0 };
                // Advance by dt.
                let mut remaining = dt;
                while remaining > 1e-12 {
                    if st.pause_left > 0.0 {
                        let used = st.pause_left.min(remaining);
                        st.pause_left -= used;
                        remaining -= used;
                        continue;
                    }
                    let dist = st.pos.distance(&st.dest);
                    let travel_time = dist / st.speed;
                    if travel_time <= remaining {
                        st.pos = st.dest;
                        remaining -= travel_time;
                        st.pause_left = self.params.pause;
                        st.dest = Point2::new(
                            self.rng.gen_range(0.0..self.params.width),
                            self.rng.gen_range(0.0..self.params.height),
                        );
                        st.speed = self.draw_speed(false);
                    } else {
                        let frac = remaining * st.speed / dist;
                        st.pos = Point2::new(
                            st.pos.x + (st.dest.x - st.pos.x) * frac,
                            st.pos.y + (st.dest.y - st.pos.y) * frac,
                        );
                        remaining = 0.0;
                    }
                }
            }
            mean_speed.push(speed_sum / n as f64);
        }

        let nodes = trajectories
            .into_iter()
            .map(NodeTrajectory::new)
            .collect::<Result<Vec<_>, _>>()?;
        Ok((MobilityTrace::from_trajectories(nodes), mean_speed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(v_min: f64, v_max: f64) -> RwParams {
        RwParams::new(1000.0, 1000.0, v_min, v_max, 0.0, 20).unwrap()
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(RwParams::new(0.0, 1.0, 1.0, 2.0, 0.0, 5).is_err());
        assert!(RwParams::new(10.0, 10.0, 0.0, 2.0, 0.0, 5).is_err());
        assert!(RwParams::new(10.0, 10.0, 3.0, 2.0, 0.0, 5).is_err());
        assert!(RwParams::new(10.0, 10.0, 1.0, 2.0, -1.0, 5).is_err());
        assert!(RwParams::new(10.0, 10.0, 1.0, 2.0, 0.0, 0).is_err());
    }

    #[test]
    fn simulate_rejects_bad_duration() {
        let mut rw = RandomWaypoint::new(params(1.0, 10.0), 1);
        assert!(rw.simulate(0.0, 1.0).is_err());
        assert!(rw.simulate(10.0, 0.0).is_err());
    }

    #[test]
    fn trace_shape() {
        let mut rw = RandomWaypoint::new(params(1.0, 10.0), 1);
        let (trace, speeds) = rw.simulate(100.0, 1.0).unwrap();
        assert_eq!(trace.node_count(), 20);
        assert_eq!(speeds.len(), 101);
        assert_eq!(trace.node(0).unwrap().len(), 101);
    }

    #[test]
    fn positions_stay_in_area() {
        let mut rw = RandomWaypoint::new(params(1.0, 20.0), 3);
        let (trace, _) = rw.simulate(200.0, 1.0).unwrap();
        for (_, tr) in trace.iter() {
            for s in tr.samples() {
                assert!((0.0..=1000.0).contains(&s.position.x));
                assert!((0.0..=1000.0).contains(&s.position.y));
            }
        }
    }

    #[test]
    fn velocity_decay_with_wide_speed_range() {
        // v ∈ [0.1, 20]: the harmonic-mean bias is strong, so late-time mean
        // speed must be clearly below the early-time mean.
        let p = RwParams::new(2000.0, 2000.0, 0.1, 20.0, 0.0, 200).unwrap();
        let mut rw = RandomWaypoint::new(p, 7);
        let (_, speeds) = rw.simulate(3000.0, 5.0).unwrap();
        let early: f64 = speeds[..20].iter().sum::<f64>() / 20.0;
        let late: f64 = speeds[speeds.len() - 100..].iter().sum::<f64>() / 100.0;
        assert!(
            late < early * 0.8,
            "velocity decay expected: early {early:.3}, late {late:.3}"
        );
    }

    #[test]
    fn stationary_start_removes_decay() {
        let p = RwParams::new(2000.0, 2000.0, 0.1, 20.0, 0.0, 300).unwrap();
        let mut rw = RandomWaypoint::new_stationary(p, 7);
        let (_, speeds) = rw.simulate(3000.0, 5.0).unwrap();
        let early: f64 = speeds[..40].iter().sum::<f64>() / 40.0;
        let late: f64 = speeds[speeds.len() - 100..].iter().sum::<f64>() / 100.0;
        let ratio = late / early;
        assert!(
            (0.75..=1.25).contains(&ratio),
            "stationary start should not decay: early {early:.3}, late {late:.3}"
        );
    }

    #[test]
    fn deterministic_with_seed() {
        let mut a = RandomWaypoint::new(params(1.0, 5.0), 42);
        let mut b = RandomWaypoint::new(params(1.0, 5.0), 42);
        let (ta, sa) = a.simulate(50.0, 1.0).unwrap();
        let (tb, sb) = b.simulate(50.0, 1.0).unwrap();
        assert_eq!(sa, sb);
        assert_eq!(
            ta.position_at(3, 25.0).unwrap(),
            tb.position_at(3, 25.0).unwrap()
        );
    }

    #[test]
    fn pause_produces_zero_speed_samples() {
        let p = RwParams::new(100.0, 100.0, 5.0, 5.0, 10.0, 5).unwrap();
        let mut rw = RandomWaypoint::new(p, 9);
        let (trace, _) = rw.simulate(200.0, 1.0).unwrap();
        let zero_speed: usize = trace
            .iter()
            .map(|(_, tr)| tr.samples().iter().filter(|s| s.speed == 0.0).count())
            .sum();
        assert!(zero_speed > 0, "pausing nodes should show zero speed");
    }

    #[test]
    fn equal_min_max_speed() {
        let p = RwParams::new(500.0, 500.0, 7.0, 7.0, 0.0, 3).unwrap();
        let mut rw = RandomWaypoint::new(p, 2);
        let (_, speeds) = rw.simulate(60.0, 1.0).unwrap();
        for s in speeds {
            assert!((s - 7.0).abs() < 1e-9);
        }
    }
}
