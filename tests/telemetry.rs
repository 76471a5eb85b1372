//! Telemetry conformance: the engine's drop counters agree with the
//! packet-conservation ledger, the stream probe's route-discovery counters
//! agree with the protocols, and run manifests round-trip. That attaching
//! the probe never changes the simulation is `tests/observability.rs`'s
//! business.
//!
//! Wired into `cavenet-telemetry` via a `[[test]]` entry (the testkit
//! pattern for cross-crate integration tests living in `tests/`).

use std::time::Duration;

use cavenet_core::{Experiment, Protocol, Scenario};
use cavenet_telemetry::{Counter, Json, RunManifest, SnapshotBus, StreamProbe};
use cavenet_testkit::InvariantChecker;

/// The Fig. 11 scenario shortened for tests: 30 s, traffic 5–25 s,
/// senders 1–3 (matches the testkit's quick scenarios).
fn quick(protocol: Protocol, seed: u64) -> Scenario {
    let mut s = Scenario::paper_table1(protocol);
    s.sim_time = Duration::from_secs(30);
    s.traffic.cbr.start = Duration::from_secs(5);
    s.traffic.cbr.stop = Duration::from_secs(25);
    s.traffic.senders = vec![1, 2, 3];
    s.seed = seed;
    s
}

/// The engine's per-reason drop counters must agree with the testkit's
/// packet-conservation ledger: every first-fate drop the ledger sees is in
/// the counters, and only duplicate fates can make the counters larger.
#[test]
fn drop_counts_agree_with_conservation_ledger() {
    let (result, sim) = Experiment::new(quick(Protocol::Aodv, 3))
        .run_with_observer(InvariantChecker::new())
        .unwrap();
    let drops = sim.drop_counts();
    let checker = sim.observer();
    checker.assert_clean();
    let ledger = checker.ledger();
    let total = drops.total();
    assert!(
        ledger.dropped <= total && total <= ledger.dropped + ledger.duplicate_fates,
        "drop counters {total} disagree with ledger {ledger:?}"
    );
    assert_eq!(
        result.drops, drops,
        "ExperimentResult must carry the counters"
    );
    // Per-reason counts decompose the total.
    assert_eq!(drops.iter().map(|(_, n)| n).sum::<u64>(), total);
}

/// Route-discovery telemetry: AODV on the quick scenario must start
/// discoveries, and the armed stream probe's final registry must match
/// what the routing instances report.
#[test]
fn route_discovery_counters_match_protocol_telemetry() {
    let scenario = quick(Protocol::Aodv, 5);
    let nodes = scenario.nodes;
    let bus = SnapshotBus::new(1 << 16);
    let (_, sim) = Experiment::new(scenario)
        .run_with_observer(StreamProbe::armed(bus.publisher("trial"), 4096))
        .unwrap();
    let mut started = 0;
    let mut succeeded = 0;
    for i in 0..nodes {
        let t = sim.routing(i).expect("routing attached").telemetry();
        started += t.discoveries_started;
        succeeded += t.discoveries_succeeded;
    }
    let registry = sim.into_observer().finish_and_publish().expect("armed");
    assert!(started > 0, "AODV must discover routes in this scenario");
    assert!(succeeded > 0);
    assert_eq!(registry.counter(Counter::RouteDiscoveryStarts), started);
    assert_eq!(
        registry.counter(Counter::RouteDiscoverySuccesses),
        succeeded
    );
}

/// A manifest built the way the bench bins build it must render, parse
/// and validate.
#[test]
fn manifest_validates_after_render_parse() {
    let scenario = quick(Protocol::Dymo, 9);
    let mut m = RunManifest::new("telemetry_test");
    m.scenario_hash = cavenet_telemetry::fnv64(format!("{scenario:?}").as_bytes());
    m.fault_plan_hash = cavenet_telemetry::fnv64(scenario.fault_plan.render().as_bytes());
    m.seed = scenario.seed;
    m.crate_versions = cavenet_telemetry::base_crate_versions();
    m.add_timing("run", 0.5);
    let text = m.to_json().render_pretty();
    let parsed = cavenet_telemetry::json::parse(&text).unwrap();
    RunManifest::validate(&parsed).unwrap();
    assert_eq!(
        parsed.get("tool").and_then(Json::as_str),
        Some("telemetry_test")
    );
}
