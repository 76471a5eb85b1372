//! Reproduces **Fig. 3**: (a) lane construction by affine transformation and
//! (b) the excerpt of the generated ns-2 trace for a 2-lane network.
//!
//! Fig. 3-a's worked example is the third lane of a rectangular arrangement,
//! placed with
//!
//! ```text
//!        ( 0 1 XS/2 )   ( Xi )
//! X̃³ᵢ =  ( 1 0  Δ   ) · ( 0  )
//!        ( 0 0  1   )   ( 1  )
//! ```
//!
//! i.e. the lane's X axis is sent down the plane's Y axis, offset by
//! `(XS/2, Δ)`. We build exactly that transformation, embed vehicles
//! through it, then generate and print a 2-lane ns-2 movement trace
//! (`setdest` commands) like the paper's Fig. 3-b.

use cavenet_ca::{Boundary, Lane, NasParams};
use cavenet_mobility::{ns2, Affine2, LaneGeometry, MobilityTrace, Point2, TraceGenerator};

fn main() {
    // --- Fig. 3-a: the paper's lane-3 transformation ---------------------
    let xs = 3000.0; // simulation-area side XS
    let delta = 1.0; // Δ, the paper's footnote-3 offset
    let lane3 = Affine2::axis_swap_with_offset(xs / 2.0, delta);
    println!("# Fig. 3-a — lane construction by affine transformation\n");
    println!(
        "lane-3 transformation A(3) (coefficients [a b tx; c d ty]): {:?}",
        lane3.coefficients()
    );
    for xi in [0.0, 100.0, 750.0, 1500.0] {
        let p = lane3.apply(Point2::new(xi, 0.0));
        println!(
            "  relative X = {xi:>7.1} m  →  absolute ({:>8.1}, {:>8.1})",
            p.x, p.y
        );
    }
    println!(
        "\n(lane coordinates run down the plane's Y axis at x = XS/2, as drawn in the figure)\n"
    );

    // --- Fig. 3-b: generated ns-2 trace for a 2-lane network -------------
    println!("# Fig. 3-b — excerpt of the generated ns-2 trace for 2 lanes\n");
    let mk_lane = |seed: u64| {
        let params = NasParams::builder()
            .length(100)
            .vehicle_count(3)
            .slowdown_probability(0.3)
            .build()
            .expect("valid parameters");
        Lane::with_random_placement(params, Boundary::Closed, seed).expect("vehicles fit")
    };
    // Lane 1 along the X axis; lane 2 placed by a lane transformation one
    // lane-width above it.
    let g1 = LaneGeometry::straight_x();
    let g2 = LaneGeometry::Straight {
        transform: Affine2::translation(0.0, 3.75),
    };
    let t1 = TraceGenerator::new(g1).steps(3).generate(mk_lane(1));
    let t2 = TraceGenerator::new(g2).steps(3).generate(mk_lane(2));
    // Merge into one node-id space, lane 1 first.
    let mut all: Vec<_> = t1.iter().map(|(_, tr)| tr).collect();
    all.extend(t2.iter().map(|(_, tr)| tr));
    let trace = MobilityTrace::from_trajectories(all);

    let tcl = ns2::export(&trace, &ns2::ExportOptions::default());
    for line in tcl.lines().take(24) {
        println!("{line}");
    }
    println!("...");
    println!("\n(initial `set X_/Y_/Z_` placements followed by timed `setdest` commands,");
    println!("with the Δ = 1 offset applied to dodge ns-2's position-0 bug — footnote 3)");
}
