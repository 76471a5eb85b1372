//! Node position providers.

use crate::SimTime;

/// Describes how a model's positions evolve around time `t`, so the
/// simulator knows when its cached position snapshot must be refreshed.
///
/// The simulator samples every node's position once per epoch and reuses the
/// snapshot (and the spatial grid built from it) for all events inside the
/// epoch, instead of re-resolving each position per event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PositionEpoch {
    /// Positions never change; one snapshot is valid forever.
    Static,
    /// Positions may change at every instant; the snapshot is resampled
    /// whenever the simulation clock has advanced. This is exact for any
    /// model and is the default.
    Continuous,
    /// Positions are constant within the numbered epoch that begins at
    /// `start`; the snapshot is sampled at `start` and reused until the
    /// epoch id changes (e.g. a trace advancing in whole mobility steps).
    Step {
        /// Monotonically increasing epoch identifier.
        id: u64,
        /// The instant the snapshot should be sampled at.
        start: SimTime,
    },
}

/// Supplies node positions over time. Implemented for mobility traces by
/// `cavenet-core`; [`StaticMobility`] covers fixed topologies in tests and
/// examples.
pub trait MobilityModel {
    /// Position `(x, y)` in metres of node `index` at time `t`.
    ///
    /// Implementations must be total over `0..node_count` and all
    /// non-negative times (clamping at trace boundaries).
    fn position(&self, index: usize, t: SimTime) -> (f64, f64);

    /// Number of nodes the model covers.
    fn node_count(&self) -> usize;

    /// The position epoch containing `t` (see [`PositionEpoch`]).
    ///
    /// The default, [`PositionEpoch::Continuous`], preserves exact per-event
    /// sampling. Models whose positions are piecewise-constant should return
    /// [`PositionEpoch::Step`] so the simulator can amortize position
    /// lookups and neighbor-grid builds across all events in an epoch;
    /// time-invariant models should return [`PositionEpoch::Static`].
    fn epoch(&self, _t: SimTime) -> PositionEpoch {
        PositionEpoch::Continuous
    }

    /// Upper bound on any node's displacement rate in metres per second:
    /// over any interval `[t, t+Δ]`, no node's position moves more than
    /// `max_speed · Δ`. The default, `None`, promises nothing.
    ///
    /// A finite bound lets the simulator serve [`PositionEpoch::Continuous`]
    /// models from a *stale-tolerant* neighbor grid: cells are rebuilt only
    /// after the accumulated drift bound exceeds a slack, and every query
    /// radius is inflated by the same bound, so the candidate set stays a
    /// superset of the true carrier-sense range set and the event schedule
    /// is bit-identical to per-timestamp rebuilding (see DESIGN.md §13).
    fn max_speed(&self) -> Option<f64> {
        None
    }
}

/// Fixed node positions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StaticMobility {
    positions: Vec<(f64, f64)>,
}

impl StaticMobility {
    /// Create from explicit positions.
    pub fn new(positions: Vec<(f64, f64)>) -> Self {
        StaticMobility { positions }
    }

    /// `n` nodes in a straight line along the X axis with the given spacing.
    pub fn line(n: usize, spacing: f64) -> Self {
        StaticMobility {
            positions: (0..n).map(|i| (i as f64 * spacing, 0.0)).collect(),
        }
    }

    /// `n×n` grid with the given spacing.
    pub fn grid(n: usize, spacing: f64) -> Self {
        let side = (n as f64).sqrt().ceil() as usize;
        StaticMobility {
            positions: (0..n)
                .map(|i| (((i % side) as f64) * spacing, ((i / side) as f64) * spacing))
                .collect(),
        }
    }

    /// `n` nodes evenly spaced around a circle of the given circumference.
    pub fn ring(n: usize, circumference: f64) -> Self {
        let r = circumference / std::f64::consts::TAU;
        StaticMobility {
            positions: (0..n)
                .map(|i| {
                    let theta = i as f64 / n as f64 * std::f64::consts::TAU;
                    (r + r * theta.cos(), r + r * theta.sin())
                })
                .collect(),
        }
    }
}

impl MobilityModel for StaticMobility {
    fn position(&self, index: usize, _t: SimTime) -> (f64, f64) {
        self.positions[index]
    }

    fn node_count(&self) -> usize {
        self.positions.len()
    }

    fn epoch(&self, _t: SimTime) -> PositionEpoch {
        PositionEpoch::Static
    }

    fn max_speed(&self) -> Option<f64> {
        Some(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_layout() {
        let m = StaticMobility::line(3, 100.0);
        assert_eq!(m.node_count(), 3);
        assert_eq!(m.position(2, SimTime::ZERO), (200.0, 0.0));
    }

    #[test]
    fn grid_layout() {
        let m = StaticMobility::grid(4, 10.0);
        assert_eq!(m.node_count(), 4);
        assert_eq!(m.position(0, SimTime::ZERO), (0.0, 0.0));
        assert_eq!(m.position(3, SimTime::ZERO), (10.0, 10.0));
    }

    #[test]
    fn ring_layout_equidistant_neighbours() {
        let m = StaticMobility::ring(30, 3000.0);
        let d = |a: (f64, f64), b: (f64, f64)| ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt();
        let p0 = m.position(0, SimTime::ZERO);
        let p1 = m.position(1, SimTime::ZERO);
        let p2 = m.position(2, SimTime::ZERO);
        assert!((d(p0, p1) - d(p1, p2)).abs() < 1e-9);
        // Chord ≈ arc for 30 nodes: 100 m spacing on a 3000 m ring.
        assert!((d(p0, p1) - 100.0).abs() < 1.0);
    }

    #[test]
    fn positions_are_time_invariant() {
        let m = StaticMobility::new(vec![(1.0, 2.0)]);
        assert_eq!(
            m.position(0, SimTime::ZERO),
            m.position(0, SimTime::from_secs(100))
        );
    }

    #[test]
    fn static_mobility_reports_static_epoch() {
        let m = StaticMobility::line(2, 10.0);
        assert_eq!(m.epoch(SimTime::ZERO), PositionEpoch::Static);
        assert_eq!(m.epoch(SimTime::from_secs(9)), PositionEpoch::Static);
    }

    #[test]
    fn default_epoch_is_continuous() {
        struct Wandering;
        impl MobilityModel for Wandering {
            fn position(&self, _i: usize, t: SimTime) -> (f64, f64) {
                (t.as_secs_f64(), 0.0)
            }
            fn node_count(&self) -> usize {
                1
            }
        }
        assert_eq!(
            Wandering.epoch(SimTime::from_secs(3)),
            PositionEpoch::Continuous
        );
    }
}
