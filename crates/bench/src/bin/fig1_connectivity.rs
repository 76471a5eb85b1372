//! Quantifies **Fig. 1**: the paper's multi-lane motivation — "connectivity
//! gaps on a lane can be filled by the presence of relay nodes on the other
//! lanes".
//!
//! Setup mirroring Fig. 1-a: a *sparse* lane (lane 0) whose vehicles often
//! drift more than one radio range apart, and a parallel lane (lane 1) with
//! its own traffic. We measure, over time, the fraction of lane-0 vehicle
//! pairs that can reach each other (multi-hop, 250 m unit disk):
//!
//! * counting only lane-0 vehicles (no relays), vs
//! * counting lane-1 vehicles as relays.
//!
//! The difference is exactly the connectivity the second lane contributes.

use cavenet_bench::csv_block;
use cavenet_ca::{Boundary, Lane, NasParams};
use cavenet_mobility::{ConnectivityAnalyzer, LaneGeometry, MobilityTrace, TraceGenerator};

const RANGE_M: f64 = 250.0;
const SPARSE: usize = 8; // sparse lane: mean spacing 375 m > 250 m range
const BUSY: usize = 30; // adjacent lane carrying normal traffic
const CELLS: usize = 400;
const STEPS: usize = 200;

/// Mean fraction of reachable lane-0 pairs over the sampled times.
fn pair_reachability(trace: &MobilityTrace, lane0_nodes: usize) -> f64 {
    let analyzer = ConnectivityAnalyzer::new(trace, RANGE_M);
    let mut total = 0.0;
    let mut samples = 0;
    for k in 0..=(STEPS / 5) {
        let t = (k * 5) as f64;
        let mut reachable = 0;
        let mut pairs = 0;
        for i in 0..lane0_nodes {
            for j in (i + 1)..lane0_nodes {
                pairs += 1;
                if analyzer.reachable(i, j, t).unwrap_or(false) {
                    reachable += 1;
                }
            }
        }
        total += reachable as f64 / pairs as f64;
        samples += 1;
    }
    total / samples as f64
}

/// Generate one lane's trace on the given ring geometry.
fn lane_trace(vehicles: usize, seed: u64, geometry: LaneGeometry) -> MobilityTrace {
    let params = NasParams::builder()
        .length(CELLS)
        .vehicle_count(vehicles)
        .slowdown_probability(0.5)
        .build()
        .expect("valid parameters");
    let mut lane =
        Lane::with_random_placement(params, Boundary::Closed, seed).expect("vehicles fit");
    for _ in 0..200 {
        lane.step();
    }
    TraceGenerator::new(geometry).steps(STEPS).generate(lane)
}

fn main() {
    println!("# Fig. 1 (quantified) — relays on an adjacent lane fill connectivity gaps");
    println!(
        "# sparse lane: {SPARSE} vehicles / 3000 m (mean spacing 375 m > 250 m range); \
         adjacent lane: {BUSY} vehicles\n"
    );

    let g0 = LaneGeometry::ring_circle(3000.0);
    let g1 = LaneGeometry::ring_circle(3000.0 + 3.75 * std::f64::consts::TAU);
    let sparse = lane_trace(SPARSE, 7, g0);
    let busy = lane_trace(BUSY, 11, g1);

    // Merged trace: sparse-lane nodes keep ids 0..SPARSE, relays follow.
    let mut all: Vec<_> = sparse.iter().map(|(_, tr)| tr).collect();
    all.extend(busy.iter().map(|(_, tr)| tr));
    let full = MobilityTrace::from_trajectories(all);

    let without = pair_reachability(&sparse, SPARSE);
    let with = pair_reachability(&full, SPARSE);

    println!(
        "lane-0 pair reachability without relays: {:>5.1}%",
        without * 100.0
    );
    println!(
        "lane-0 pair reachability with lane-1 relays: {:>5.1}%",
        with * 100.0
    );
    println!(
        "\nrelay gain: +{:.1} percentage points → {}",
        (with - without) * 100.0,
        if with > without {
            "second lane fills gaps (paper Fig. 1-a) ✓"
        } else {
            "no gain measured (increase sparsity)"
        }
    );
    println!(
        "\n## CSV\n{}",
        csv_block("without_relays,with_relays", &[vec![without, with]])
    );
}
