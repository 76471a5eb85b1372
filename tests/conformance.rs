//! Conformance suite: golden event-stream digests, engine invariants, and
//! differential equivalence checks.
//!
//! Golden fixtures live in `tests/golden/` and are regenerated with
//! `UPDATE_GOLDEN=1 cargo test -p cavenet-testkit`. Any behavioural change
//! to the engine, MAC, routing protocols or mobility pipeline flips the
//! digests; the mismatch message prints both values.

use std::time::Duration;

use cavenet_ca::FundamentalDiagram;
use cavenet_core::{Experiment, Fidelity, MobilitySource, Protocol, Scenario};
use cavenet_net::{FaultPlan, RecoveryMode, SimTime};
use cavenet_stats::Ensemble;
use cavenet_testkit::{
    assert_equiv, check_golden, digest_scenario, jam_ring_scenario, GoldenDigest, InvariantChecker,
    Tee,
};
use proptest::prelude::*;

/// The paper's Table 1 setup trimmed for CI: 40 s simulated, CBR traffic
/// from 5 s to 25 s, three senders. The 15 s drain window exceeds the
/// reactive protocols' 10 s discovery-buffer timeout, so every data packet
/// reaches a terminal fate before the run ends and the conservation ledger
/// settles with zero outstanding packets.
fn conformance_scenario(protocol: Protocol, seed: u64) -> Scenario {
    let mut s = Scenario::paper_table1(protocol);
    s.sim_time = Duration::from_secs(40);
    s.traffic.cbr.start = Duration::from_secs(5);
    s.traffic.cbr.stop = Duration::from_secs(25);
    s.traffic.senders = vec![1, 2, 3];
    s.seed = seed;
    s
}

fn check_scenario_golden(name: &str, scenario: &Scenario) {
    let run = digest_scenario(scenario);
    assert!(
        run.result.total_sent() > 0,
        "golden scenario `{name}` carried no traffic"
    );
    check_golden(name, run.digest, run.events);
}

// --- Golden digests: Table 1 × {AODV, OLSR, DYMO} ------------------------

#[test]
fn golden_table1_aodv() {
    check_scenario_golden("table1_aodv", &conformance_scenario(Protocol::Aodv, 1));
}

#[test]
fn golden_table1_aodv_ignores_shards() {
    // The exact engine is serial: `shards` must not move its digest.
    let s = Scenario {
        shards: 4,
        ..conformance_scenario(Protocol::Aodv, 1)
    };
    check_scenario_golden("table1_aodv", &s);
}

#[test]
fn golden_table1_olsr() {
    check_scenario_golden("table1_olsr", &conformance_scenario(Protocol::Olsr, 1));
}

#[test]
fn golden_table1_dymo() {
    check_scenario_golden("table1_dymo", &conformance_scenario(Protocol::Dymo, 1));
}

#[test]
fn golden_table1_dsdv() {
    check_scenario_golden("table1_dsdv", &conformance_scenario(Protocol::Dsdv, 1));
}

#[test]
fn golden_table1_flooding() {
    check_scenario_golden(
        "table1_flooding",
        &conformance_scenario(Protocol::Flooding, 1),
    );
}

// --- Golden digest: Fig. 11 (PDR under the full 8-sender load) -----------

#[test]
fn golden_fig11_eight_senders() {
    let mut s = conformance_scenario(Protocol::Aodv, 1);
    s.traffic.senders = (1..=8).collect();
    check_scenario_golden("fig11_aodv_8senders", &s);
}

// --- Golden digest: dense fan-out (flooded jam ring) ----------------------

#[test]
fn golden_jam_ring_dense_flood() {
    // 600 vehicles on a 1.2 km ring: every station hears every other, so
    // each transmission fans out to ~600 receptions — the regime where
    // the scheduler handles hundreds of same-instant RxStart/RxEnd pairs.
    check_scenario_golden("jam_ring_dense_flood", &jam_ring_scenario(600));
}

// --- Golden digest: Fig. 4 (CA fundamental diagram) ----------------------

#[test]
fn golden_fig4_density_sweep() {
    // The cellular automaton does not run inside the event engine, so its
    // outputs are folded into a digest explicitly.
    let densities = [0.05, 0.15, 0.3, 0.5, 0.8];
    let points = FundamentalDiagram::new(400, 0.3)
        .iterations(200)
        .discard(50)
        .trials(5)
        .sweep(&densities, 42)
        .expect("valid densities");
    let mut digest = GoldenDigest::new();
    for p in &points {
        digest.absorb_f64(p.density);
        digest.absorb_f64(p.mean_flow);
        digest.absorb_f64(p.mean_velocity);
        digest.absorb_f64(p.flow_std);
        digest.absorb_u64(p.trials as u64);
    }
    check_golden("fig4_density_sweep", digest.value(), points.len() as u64);
}

// --- Engine invariants on the paper scenario ------------------------------

#[test]
fn invariants_hold_on_table1() {
    for protocol in [Protocol::Aodv, Protocol::Olsr, Protocol::Dymo] {
        let scenario = conformance_scenario(protocol, 1);
        let (result, sim) = Experiment::new(scenario)
            .run_with_observer(InvariantChecker::new())
            .expect("scenario must run");
        let checker = sim.into_observer();
        assert!(
            checker.events_dispatched() > 1000,
            "{protocol:?}: too few events"
        );
        assert!(
            checker.mac_transitions() > 0,
            "{protocol:?}: MAC never moved"
        );
        checker.assert_clean();
        let ledger = checker.ledger();
        assert_eq!(
            ledger.originated,
            result.total_sent(),
            "{protocol:?}: every CBR packet must be seen entering the network"
        );
        assert_eq!(
            ledger.outstanding, 0,
            "{protocol:?}: ledger must settle after the drain window: {ledger:?}"
        );
        assert!(ledger.balanced(), "{protocol:?}: {ledger:?}");
        assert!(ledger.delivered > 0, "{protocol:?}: nothing delivered");
    }
}

#[test]
fn digest_and_invariants_can_share_a_run() {
    let scenario = conformance_scenario(Protocol::Aodv, 1);
    let (_, sim) = Experiment::new(scenario)
        .run_with_observer(Tee(GoldenDigest::new(), InvariantChecker::new()))
        .expect("scenario must run");
    let Tee(digest, checker) = sim.into_observer();
    checker.assert_clean();
    // The teed digest observes the same stream as a standalone one.
    let standalone = digest_scenario(&conformance_scenario(Protocol::Aodv, 1));
    assert_eq!(digest.events(), standalone.events);
}

// --- Differential equivalence ---------------------------------------------

#[test]
fn neighbor_grid_is_equivalent_to_brute_force() {
    assert_equiv(
        &conformance_scenario(Protocol::Aodv, 11),
        "neighbor grid",
        |s| s.neighbor_grid = true,
        "brute force",
        |s| s.neighbor_grid = false,
    );
}

#[test]
fn digests_are_reproducible() {
    let a = digest_scenario(&conformance_scenario(Protocol::Dymo, 3));
    let b = digest_scenario(&conformance_scenario(Protocol::Dymo, 3));
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.events, b.events);
}

#[test]
fn parameter_flip_changes_digest() {
    // The digest must be sensitive to every scenario parameter: nudging the
    // CA slow-down probability by 0.01 must flip it.
    let base = conformance_scenario(Protocol::Aodv, 1);
    let mut flipped = base.clone();
    match &mut flipped.mobility {
        MobilitySource::NasCa {
            slowdown_probability,
            ..
        } => *slowdown_probability += 0.01,
        other => panic!("Table 1 uses the NaS CA, got {other:?}"),
    }
    let a = digest_scenario(&base);
    let b = digest_scenario(&flipped);
    assert_ne!(
        a.digest, b.digest,
        "digest must react to a mobility parameter change"
    );
}

// --- Fault injection ------------------------------------------------------

/// The fixed churn plan used by the faulted golden fixture and the
/// determinism checks: two relay vehicles crash mid-traffic and recover
/// before the drain window ends. Changing it invalidates
/// `tests/golden/table1_aodv_churn.golden`.
fn fixed_churn_plan() -> FaultPlan {
    FaultPlan::new()
        .crash(SimTime::from_secs(10), 12)
        .recover(SimTime::from_secs(20), 12)
        .crash(SimTime::from_secs(15), 20)
        .recover(SimTime::from_secs(24), 20)
}

#[test]
fn golden_table1_aodv_churn() {
    let mut s = conformance_scenario(Protocol::Aodv, 1);
    s.fault_plan = fixed_churn_plan();
    check_scenario_golden("table1_aodv_churn", &s);
}

#[test]
fn empty_fault_plan_leaves_digest_unchanged() {
    // An empty plan must be a provable no-op: no scheduled events, no RNG
    // draws, no observer calls. A non-default recovery mode with no events
    // is still empty.
    let base = conformance_scenario(Protocol::Aodv, 1);
    let mut explicit = base.clone();
    explicit.fault_plan = FaultPlan::new().recovery(RecoveryMode::WarmStart);
    assert!(explicit.fault_plan.is_empty());
    let a = digest_scenario(&base);
    let b = digest_scenario(&explicit);
    assert_eq!(a.digest, b.digest, "empty fault plan perturbed the run");
    assert_eq!(a.events, b.events);
}

#[test]
fn fixed_churn_plan_replays_bit_identically() {
    let mut s = conformance_scenario(Protocol::Aodv, 1);
    s.fault_plan = fixed_churn_plan();
    let a = digest_scenario(&s);
    let b = digest_scenario(&s);
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.events, b.events);
}

#[test]
fn churn_ledger_stays_balanced() {
    // Nodes crash while holding frames in their MAC queue and discovery
    // buffers; the conservation ledger must settle every one of them as
    // `DropReason::NodeDown` (or a later legitimate fate), never lose one.
    for protocol in [Protocol::Aodv, Protocol::Olsr, Protocol::Dymo] {
        let mut s = conformance_scenario(protocol, 1);
        s.fault_plan = fixed_churn_plan();
        let (result, sim) = Experiment::new(s)
            .run_with_observer(InvariantChecker::new())
            .expect("scenario must run");
        let checker = sim.into_observer();
        checker.assert_clean();
        assert_eq!(checker.faults(), (2, 2), "{protocol:?}: fault events");
        let ledger = checker.ledger();
        assert!(ledger.balanced(), "{protocol:?}: {ledger:?}");
        assert_eq!(
            ledger.outstanding, 0,
            "{protocol:?}: ledger must settle after the drain window: {ledger:?}"
        );
        assert!(
            result.total_received() > 0,
            "{protocol:?}: churn silenced the network"
        );
    }
}

#[test]
fn faulted_serial_and_parallel_ensembles_are_bit_identical() {
    let pdr_at = |seed: u64| {
        let mut s = conformance_scenario(Protocol::Aodv, seed);
        s.fault_plan = fixed_churn_plan();
        Experiment::new(s)
            .run()
            .expect("scenario must run")
            .mean_pdr()
    };
    let ensemble = Ensemble::new(3, 9);
    let serial = ensemble.run_scalar(pdr_at).expect("summary");
    let parallel = ensemble.run_scalar_par(pdr_at).expect("summary");
    assert_eq!(
        serial, parallel,
        "worker scheduling leaked into faulted results"
    );
}

/// A small always-connected ring for property tests: 8 parked nodes at
/// 150 m spacing, two CBR flows, 12 s simulated.
fn proptest_scenario(plan: FaultPlan) -> Scenario {
    let mut s = Scenario::paper_table1(Protocol::Aodv);
    s.nodes = 8;
    s.circuit_m = 1200.0;
    s.mobility = MobilitySource::ParkedRing;
    s.sim_time = Duration::from_secs(12);
    s.traffic.senders = vec![1, 2];
    s.traffic.cbr.start = Duration::from_secs(2);
    s.traffic.cbr.stop = Duration::from_secs(8);
    s.fault_plan = plan;
    s.seed = 5;
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Any random valid fault plan must (a) pass validation, (b) replay
    /// bit-identically across two independent runs, and (c) never provoke
    /// an engine-invariant violation — DCF state-machine legality, event
    /// time monotonicity, packet-ledger balance.
    #[test]
    fn random_fault_plans_replay_bit_identically(
        pairs in proptest::collection::vec((0usize..8, 1_000u64..8_000, 500u64..3_000), 0..4),
        loss in 0.0f64..0.3,
        burst in (any::<bool>(), 3_000u64..6_000, 500u64..3_000, 0.0f64..0.9),
    ) {
        let mut plan = FaultPlan::new().link_loss(loss);
        let mut used = std::collections::HashSet::new();
        for (node, crash_ms, down_ms) in pairs {
            if !used.insert(node) {
                continue; // one crash/recover pair per node keeps it valid
            }
            plan = plan
                .crash(SimTime::from_millis(crash_ms), node)
                .recover(SimTime::from_millis(crash_ms + down_ms), node);
        }
        let (with_burst, start_ms, len_ms, burst_loss) = burst;
        if with_burst {
            plan = plan.burst(
                SimTime::from_millis(start_ms),
                SimTime::from_millis(start_ms + len_ms),
                burst_loss,
            );
        }
        prop_assert!(plan.validate(8).is_ok(), "constructed plan must be valid");

        let s = proptest_scenario(plan);
        let a = digest_scenario(&s);
        let b = digest_scenario(&s);
        prop_assert_eq!(a.digest, b.digest, "faulted run is not replayable");
        prop_assert_eq!(a.events, b.events);

        let (_, sim) = Experiment::new(s)
            .run_with_observer(InvariantChecker::new())
            .expect("scenario must run");
        let checker = sim.into_observer();
        prop_assert_eq!(checker.violations(), &[] as &[String]);
        prop_assert!(checker.ledger().balanced());
    }
}

// --- Fluid backend fidelity -----------------------------------------------

/// Per-scenario-class error tolerances for the fluid backend, calibrated
/// against the measured differentials committed in
/// `benchmarks/BENCH_fluid.json` (regenerated by `fidelity_report`) with
/// headroom for platform jitter. Columns: `(class, scenario, max |PDR
/// error|, max relative goodput error)`.
///
/// * The unicast Table 1 classes and the churn variant measure ≈ 0 error
///   (all flows saturate to PDR 1 under both backends).
/// * Flooding measures 0.007 PDR error — the fluid flood closure slightly
///   overshoots the exact broadcast storm's residual losses.
/// * Fig. 11's eight-sender load measures 0.069 PDR / 7.5 % goodput
///   error: the fluid model has no per-packet route-discovery latency, so
///   it over-delivers on the most contended class.
fn fluid_tolerance_table() -> Vec<(&'static str, Scenario, f64, f64)> {
    let mut churn = conformance_scenario(Protocol::Aodv, 1);
    churn.fault_plan = fixed_churn_plan();
    let mut fig11 = conformance_scenario(Protocol::Aodv, 1);
    fig11.traffic.senders = (1..=8).collect();
    vec![
        (
            "table1_aodv",
            conformance_scenario(Protocol::Aodv, 1),
            0.02,
            0.05,
        ),
        (
            "table1_olsr",
            conformance_scenario(Protocol::Olsr, 1),
            0.02,
            0.05,
        ),
        (
            "table1_dymo",
            conformance_scenario(Protocol::Dymo, 1),
            0.02,
            0.05,
        ),
        (
            "table1_dsdv",
            conformance_scenario(Protocol::Dsdv, 1),
            0.02,
            0.05,
        ),
        (
            "table1_flooding",
            conformance_scenario(Protocol::Flooding, 1),
            0.05,
            0.08,
        ),
        ("fig11_aodv_8senders", fig11, 0.10, 0.12),
        ("table1_aodv_churn", churn, 0.02, 0.05),
    ]
}

/// `(mean PDR, delivered goodput bits)` of `scenario` under `fidelity` —
/// the same two observables `fidelity_report` records per class.
fn backend_observables(scenario: &Scenario, fidelity: Fidelity) -> (f64, f64) {
    let mut s = scenario.clone();
    s.fidelity = fidelity;
    let r = Experiment::new(s).run().expect("scenario must run");
    let goodput_bits: f64 = r
        .senders
        .iter()
        .map(|s| s.metrics.bytes_received as f64 * 8.0)
        .sum();
    (r.mean_pdr(), goodput_bits)
}

#[test]
fn fluid_errors_stay_within_the_class_tolerance_table() {
    for (name, scenario, pdr_tol, goodput_tol) in fluid_tolerance_table() {
        let (exact_pdr, exact_bits) = backend_observables(&scenario, Fidelity::Exact);
        let (fluid_pdr, fluid_bits) = backend_observables(&scenario, Fidelity::Fluid);
        let pdr_err = (fluid_pdr - exact_pdr).abs();
        let goodput_err = if exact_bits > 0.0 {
            (fluid_bits - exact_bits).abs() / exact_bits
        } else {
            fluid_bits
        };
        assert!(exact_bits > 0.0, "{name}: exact run delivered nothing");
        assert!(
            pdr_err <= pdr_tol,
            "{name}: |PDR error| {pdr_err:.4} exceeds tolerance {pdr_tol} \
             (exact {exact_pdr:.4}, fluid {fluid_pdr:.4})"
        );
        assert!(
            goodput_err <= goodput_tol,
            "{name}: relative goodput error {goodput_err:.4} exceeds tolerance \
             {goodput_tol} (exact {exact_bits:.0} bits, fluid {fluid_bits:.0} bits)"
        );
    }
}

#[test]
fn fluid_runs_are_deterministic_and_seed_sensitive() {
    // Same scenario twice: bit-identical engine digest. Different mobility
    // seed: the node field shifts, so the digest must move — the fluid
    // backend is deterministic but not seed-blind.
    let mut s = conformance_scenario(Protocol::Aodv, 7);
    s.fidelity = Fidelity::Fluid;
    let digest_of = |s: &Scenario| {
        let (_, engine) = Experiment::new(s.clone()).run_fluid().expect("fluid run");
        (engine.digest(), engine.steps_done())
    };
    let a = digest_of(&s);
    let b = digest_of(&s);
    assert_eq!(a, b, "fluid backend is not replayable");
    let mut reseeded = s.clone();
    reseeded.seed = 8;
    let c = digest_of(&reseeded);
    assert_ne!(a.0, c.0, "fluid digest ignored the scenario seed");
}

#[test]
fn serial_and_parallel_ensembles_are_bit_identical() {
    let pdr_at = |seed: u64| {
        let mut s = conformance_scenario(Protocol::Aodv, seed);
        s.seed = seed;
        Experiment::new(s)
            .run()
            .expect("scenario must run")
            .mean_pdr()
    };
    let ensemble = Ensemble::new(3, 9);
    let serial = ensemble.run_scalar(pdr_at).expect("summary");
    let parallel = ensemble.run_scalar_par(pdr_at).expect("summary");
    assert_eq!(serial, parallel, "worker scheduling leaked into results");
}
