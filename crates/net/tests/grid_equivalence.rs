//! Property tests for the spatial broadcast kernel: the neighbor grid must
//! be a *pure* optimization — same receiver sets, same event schedule, same
//! statistics — for any layout, range, and cell size.

use std::time::Duration;

use cavenet_rng::SimRng;
use proptest::prelude::*;

use cavenet_net::{
    Application, FlowId, NodeApi, NodeId, Packet, PhyParams, Propagation, ScenarioConfig,
    Simulator, SpatialGrid, StaticMobility,
};

fn dist(a: (f64, f64), b: (f64, f64)) -> f64 {
    ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The grid's candidate list, filtered by true Euclidean distance, is
    /// exactly the brute-force all-pairs in-range set — for any layout,
    /// query range, and cell size — and comes back sorted ascending.
    #[test]
    fn grid_candidates_match_brute_force(
        positions in prop::collection::vec((0.0f64..3000.0, 0.0f64..3000.0), 1..80),
        center in (0.0f64..3000.0, 0.0f64..3000.0),
        range in 1.0f64..1200.0,
        cell in 1.0f64..1200.0,
    ) {
        let mut grid = SpatialGrid::new(cell);
        grid.rebuild(&positions);
        let mut cand = Vec::new();
        grid.candidates_within(center, range, &mut cand);

        let mut sorted = cand.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(&cand, &sorted, "candidates must be sorted and unique");

        let grid_set: Vec<usize> = cand
            .into_iter()
            .filter(|&j| dist(positions[j], center) <= range)
            .collect();
        let brute_set: Vec<usize> = (0..positions.len())
            .filter(|&j| dist(positions[j], center) <= range)
            .collect();
        prop_assert_eq!(grid_set, brute_set);
    }

    /// The carrier-sense cutoff is conservative: any station whose received
    /// power reaches the carrier-sense threshold lies within the cutoff
    /// radius, for both deterministic propagation models. Checked on the
    /// default PHY and on PHYs calibrated to carrier-sense ranges up to
    /// 1,000 km, at distances on both sides of each range.
    #[test]
    fn carrier_sense_cutoff_is_conservative(
        d in 0.1f64..5000.0,
        cs_range in 100.0f64..1e6,
        frac in 0.0f64..2.0,
    ) {
        let default = PhyParams::default();
        let mut rng = SimRng::seed_from_u64(0);
        for model in [Propagation::FreeSpace, Propagation::TwoRayGround] {
            let calibrated = PhyParams::default().calibrate_ranges(model, cs_range / 2.0, cs_range);
            for (phy, d) in [(&default, d), (&calibrated, (cs_range * frac).max(0.1))] {
                let power = phy.rx_power(model, d, &mut rng);
                if power < phy.cs_threshold_w {
                    continue;
                }
                // `None` promises nothing, so every station is scanned.
                if let Some(cutoff) = phy.carrier_sense_cutoff(model) {
                    prop_assert!(
                        d <= cutoff,
                        "station at {d} m senses the frame but lies outside the {cutoff} m cutoff"
                    );
                }
            }
        }
        prop_assert!(default.carrier_sense_cutoff(Propagation::TwoRayGround).is_some());
    }
}

/// Periodically originates packets (broadcast or unicast) so the scenario
/// exercises the transmission path.
struct Chatter {
    dst: NodeId,
    sent: u32,
    count: u32,
}

impl Application for Chatter {
    fn start(&mut self, api: &mut NodeApi<'_>) {
        api.schedule(Duration::from_millis(5), 0);
    }

    fn handle_timer(&mut self, api: &mut NodeApi<'_>, _token: u64) {
        let flow = FlowId::new(api.id(), self.dst, 0);
        api.originate(Packet::data(flow, self.sent, 256, api.now()));
        self.sent += 1;
        if self.sent < self.count {
            api.schedule(Duration::from_millis(10), 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// End to end: a full simulation (broadcast + unicast traffic under
    /// contention) produces identical engine and MAC statistics with the
    /// grid on and off, for random layouts and seeds.
    #[test]
    fn simulation_identical_with_and_without_grid(
        positions in prop::collection::vec((0.0f64..2000.0, 0.0f64..2000.0), 2..25),
        seed in any::<u64>(),
    ) {
        let n = positions.len();
        let run = |use_grid: bool| {
            let mut sim = Simulator::builder(ScenarioConfig::default())
                .nodes(n)
                .seed(seed)
                .mobility(Box::new(StaticMobility::new(positions.clone())))
                .neighbor_grid(use_grid)
                .app(0, Box::new(Chatter { dst: NodeId::BROADCAST, sent: 0, count: 10 }))
                .app(n - 1, Box::new(Chatter { dst: NodeId(0), sent: 0, count: 10 }))
                .build();
            sim.run_until_secs(0.5);
            let macs: Vec<_> = (0..n).map(|i| sim.mac_stats(i)).collect();
            (sim.global_stats(), macs)
        };
        let (ga, ma) = run(true);
        let (gb, mb) = run(false);
        prop_assert_eq!(ga, gb, "global stats diverged");
        prop_assert_eq!(ma, mb, "per-node MAC stats diverged");
    }
}

/// Two stations 250 km apart on a PHY calibrated to a 300 km carrier-sense
/// range: the station is far beyond any radius a bisection can bracket, so
/// the grid must fall back to the full scan and hear every frame it does.
#[test]
fn stations_beyond_the_cutoff_bracket_are_heard() {
    let phy =
        PhyParams::default().calibrate_ranges(Propagation::TwoRayGround, 260_000.0, 300_000.0);
    let config = ScenarioConfig {
        phy,
        ..ScenarioConfig::default()
    };
    let run = |use_grid: bool| {
        let mut sim = Simulator::builder(config)
            .nodes(2)
            .seed(1)
            .mobility(Box::new(StaticMobility::line(2, 250_000.0)))
            .neighbor_grid(use_grid)
            .app(
                0,
                Box::new(Chatter {
                    dst: NodeId::BROADCAST,
                    sent: 0,
                    count: 5,
                }),
            )
            .build();
        sim.run_until_secs(0.5);
        sim.global_stats()
    };
    let (grid, scan) = (run(true), run(false));
    assert_eq!(scan.decoded, 5, "{scan:?}");
    assert_eq!(grid, scan);
}
