//! Live-streaming observability conformance: publishing in-flight
//! snapshots never changes the simulation, aggregation converges
//! regardless of arrival order, and the JSONL campaign feed round-trips.
//!
//! Wired into `cavenet-telemetry` via a `[[test]]` entry (the testkit
//! pattern for cross-crate integration tests living in `tests/`).

use std::time::Duration;

use cavenet_core::{Experiment, Protocol, Scenario};
use cavenet_net::{FaultPlan, SimTime};
use cavenet_telemetry::{
    fnv64, render_prometheus, CampaignAggregator, Counter, HistogramId, MetricsRegistry,
    SnapshotBus, SnapshotEnvelope, StreamProbe,
};
use cavenet_testkit::{check_golden, GoldenDigest, Tee};
use proptest::prelude::*;

/// The Fig. 11 scenario shortened for tests (matches `tests/telemetry.rs`).
fn quick(protocol: Protocol, seed: u64) -> Scenario {
    let mut s = Scenario::paper_table1(protocol);
    s.sim_time = Duration::from_secs(30);
    s.traffic.cbr.start = Duration::from_secs(5);
    s.traffic.cbr.stop = Duration::from_secs(25);
    s.traffic.senders = vec![1, 2, 3];
    s.seed = seed;
    s
}

/// The quick AODV run under node churn: two relays crash and recover
/// mid-traffic.
fn churn(seed: u64) -> Scenario {
    let mut scenario = quick(Protocol::Aodv, seed);
    scenario.fault_plan = FaultPlan::new()
        .crash(SimTime::from_secs(10), 12)
        .recover(SimTime::from_secs(20), 12)
        .crash(SimTime::from_secs(15), 20)
        .recover(SimTime::from_secs(24), 20);
    scenario
}

/// Run `scenario` three times — unobserved, digest-only, then digest plus
/// an armed [`StreamProbe`] publishing every 256 events — and require the
/// golden event-stream digests to be bit-identical and the three results
/// equal. Returns the drained feed and the probe's final registry for
/// further checks.
fn assert_stream_invisible(scenario: Scenario) -> (Vec<SnapshotEnvelope>, MetricsRegistry) {
    let unobserved = Experiment::new(scenario.clone()).run().unwrap();
    let (plain_result, plain_sim) = Experiment::new(scenario.clone())
        .run_with_observer(GoldenDigest::new())
        .unwrap();
    let plain = plain_sim.into_observer();

    let bus = SnapshotBus::new(1 << 16);
    let (streamed_result, streamed_sim) = Experiment::new(scenario)
        .run_with_observer(Tee(
            GoldenDigest::new(),
            StreamProbe::armed(bus.publisher("trial"), 256),
        ))
        .unwrap();
    let Tee(digest, mut probe) = streamed_sim.into_observer();
    let registry = probe.finish_and_publish().expect("probe armed");

    assert_eq!(
        (plain.value(), plain.events()),
        (digest.value(), digest.events()),
        "live streaming perturbed the event stream"
    );
    assert_eq!(plain_result.global, streamed_result.global);
    assert_eq!(plain_result.drops, streamed_result.drops);
    assert_eq!(
        unobserved.global, streamed_result.global,
        "the observed run diverged from the unobserved one"
    );
    assert_eq!(unobserved.drops, streamed_result.drops);
    assert_eq!(
        registry.counter(Counter::EventsDispatched),
        plain.events(),
        "the published registry must account for every dispatched event"
    );
    let feed = bus.drain();
    assert!(!feed.is_empty(), "the probe must actually have published");
    assert_eq!(bus.shed(), 0, "the bus was sized to hold the whole feed");
    (feed, registry)
}

/// Streaming is digest-invisible for every protocol with a distinct code
/// path — the composition of read-only hooks, strided publication and
/// out-of-band transport argued in the `stream` module docs, proven by
/// golden bit-identity.
#[test]
fn live_streaming_leaves_event_stream_bit_identical() {
    for protocol in [
        Protocol::Aodv,
        Protocol::Olsr,
        Protocol::Dymo,
        Protocol::Dsdv,
        Protocol::Flooding,
    ] {
        assert_stream_invisible(quick(protocol, 11));
    }
}

/// Same invariant under node churn: crash/recover faults stress the
/// engine paths (fault events, route invalidation, drop reasons) the
/// plain quick scenario never takes.
#[test]
fn live_streaming_invisible_under_churn() {
    let (feed, registry) = assert_stream_invisible(churn(2));
    assert!(registry.counter(Counter::Faults) > 0);
    // The feed's tail is the final flush: identical to the registry the
    // probe handed back.
    assert_eq!(feed.last().unwrap().registry, registry);
}

/// What an armed probe publishes, pinned byte for byte on the churn
/// fixture and the AODV and Flooding quick runs: the whole feed (every
/// drained envelope's JSONL line, in order, joined by `\n`) and the final
/// registry's rendered snapshot, each by its FNV-1a hash and byte length.
/// A change to what the probe counts, when it publishes or how the feed
/// renders moves them.
#[test]
fn stream_feed_is_pinned() {
    for (name, scenario) in [
        ("churn", churn(2)),
        ("aodv", quick(Protocol::Aodv, 11)),
        ("flooding", quick(Protocol::Flooding, 11)),
    ] {
        let (feed, registry) = assert_stream_invisible(scenario);
        let lines: Vec<String> = feed.iter().map(SnapshotEnvelope::render_line).collect();
        let feed = lines.join("\n");
        let registry = registry.snapshot().render();
        for (kind, text) in [("feed", feed), ("registry", registry)] {
            let fixture = format!("stream_{kind}_{name}");
            check_golden(&fixture, fnv64(text.as_bytes()), text.len() as u64);
        }
    }
}

/// The JSONL campaign feed round-trips: every line parses back, and
/// re-aggregating the parsed feed reconstructs the trial's final registry
/// bit-for-bit (single source: the aggregate *is* the newest snapshot).
#[test]
fn feed_round_trip_reconstructs_final_registry() {
    let (feed, registry) = assert_stream_invisible(quick(Protocol::Aodv, 7));
    let mut aggregator = CampaignAggregator::new();
    for envelope in &feed {
        let line = envelope.render_line();
        let parsed = SnapshotEnvelope::parse_line(&line).expect("every feed line parses");
        assert_eq!(&parsed, envelope, "feed line round-trips losslessly");
        aggregator.ingest(parsed);
    }
    assert_eq!(aggregator.sources(), 1);
    assert_eq!(
        aggregator.merged(),
        registry,
        "re-aggregated feed must equal the final registry"
    );
}

/// The Prometheus exposition of a real run names every non-zero counter
/// as a `_total` series and renders cumulative histogram buckets.
#[test]
fn prometheus_exposition_covers_the_registry() {
    let (_, registry) = assert_stream_invisible(quick(Protocol::Dymo, 5));
    let text = render_prometheus(&registry, &[("trial", "dymo-5")]);
    assert!(text.ends_with('\n'));
    for (counter, value) in [
        (Counter::EventsDispatched, None),
        (
            Counter::PacketsDelivered,
            Some(registry.counter(Counter::PacketsDelivered)),
        ),
    ] {
        let series = format!("cavenet_{}_total{{trial=\"dymo-5\"}}", counter.name());
        assert!(text.contains(&series), "missing series {series}");
        if let Some(v) = value {
            assert!(text.contains(&format!("{series} {v}")));
        }
    }
    assert!(text.contains("cavenet_delivery_latency_ns_bucket"));
    assert!(text.contains("le=\"+Inf\""));
}

/// Build the `i`-th spec'd envelope: globally unique `seq`, a source from
/// a small pool, and a registry whose slots are derived from the spec.
fn envelope_of(i: usize, (source, frames, latency): (u64, u64, u64)) -> SnapshotEnvelope {
    let mut registry = MetricsRegistry::new();
    registry.add(Counter::FramesTx, frames);
    registry.observe(HistogramId::DeliveryLatencyNs, latency);
    SnapshotEnvelope {
        source: format!("trial-{source}"),
        seq: i as u64 + 1,
        sim_time_ns: latency,
        events: frames,
        registry,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The campaign aggregate is independent of arrival order and immune
    /// to duplicates: ingesting the same envelope set in publication
    /// order, or permuted with every envelope delivered twice, converges
    /// to the same merged registry — the keep-newest-per-source /
    /// merge-is-commutative argument of the `stream` module docs.
    #[test]
    fn aggregation_converges_under_out_of_order_and_duplicate_arrival(
        specs in prop::collection::vec((0u64..4, 0u64..1_000, 0u64..1_000_000), 1..24),
        shuffle_keys in prop::collection::vec(any::<u64>(), 24..25),
    ) {
        // A random permutation: indices sorted under independently drawn
        // keys (the vendored proptest has no shuffle strategy).
        let mut order: Vec<usize> = (0..specs.len()).collect();
        order.sort_by_key(|&i| shuffle_keys[i]);
        let envelopes: Vec<SnapshotEnvelope> = specs
            .iter()
            .enumerate()
            .map(|(i, &spec)| envelope_of(i, spec))
            .collect();

        let mut in_order = CampaignAggregator::new();
        in_order.ingest_all(envelopes.iter().cloned());

        let mut scrambled = CampaignAggregator::new();
        for &i in &order {
            scrambled.ingest(envelopes[i].clone());
            scrambled.ingest(envelopes[i].clone()); // duplicate delivery
        }

        prop_assert_eq!(in_order.sources(), scrambled.sources());
        prop_assert_eq!(in_order.merged(), scrambled.merged());
        // Every duplicate was rejected as stale, never double-merged.
        prop_assert!(scrambled.stale_dropped() >= envelopes.len() as u64);
    }

    /// Per-source the aggregator keeps exactly the highest-seq envelope,
    /// whatever order they arrive in.
    #[test]
    fn aggregator_retains_the_newest_snapshot_per_source(
        specs in prop::collection::vec((0u64..3, 0u64..1_000, 0u64..1_000_000), 1..16),
    ) {
        let envelopes: Vec<SnapshotEnvelope> = specs
            .iter()
            .enumerate()
            .map(|(i, &spec)| envelope_of(i, spec))
            .collect();
        let mut aggregator = CampaignAggregator::new();
        // Reversed arrival: every source's newest envelope lands first.
        aggregator.ingest_all(envelopes.iter().rev().cloned());
        for envelope in &envelopes {
            let kept = aggregator.latest(&envelope.source).expect("source seen");
            prop_assert!(kept.seq >= envelope.seq);
        }
        let newest_frames: u64 = aggregator.envelopes().map(|e| e.events).sum();
        prop_assert_eq!(aggregator.merged().counter(Counter::FramesTx), newest_frames);
    }
}
