//! Live streaming of in-flight metrics snapshots.
//!
//! A trial's metrics are visible while it runs, not only once it ends.
//! This module holds the [`StreamProbe`] observer that fills a trial's
//! [`MetricsRegistry`] and drives publication, and the trial's heartbeat,
//! from inside a running simulation; a [`SnapshotBus`] that in-flight
//! trials publish deterministic registry snapshots onto; and a
//! [`CampaignAggregator`] that folds per-trial snapshots into one
//! campaign-level registry mid-flight.
//!
//! # Digest invisibility
//!
//! Streaming must never perturb the simulation it watches. Three
//! properties guarantee it, and the observability test suite proves the
//! composition by golden-digest bit-identity:
//!
//! 1. **Read-only hooks.** [`StreamProbe`] is a [`SimObserver`] like any
//!    other: every hook only reads its arguments, so the engine's event
//!    stream, RNG draws and statistics are untouched.
//! 2. **No hot-path branches in the engine.** Publication rides the
//!    trial's heartbeat: the probe counts dispatches down locally and,
//!    every `stride` events, beats the trial's [`ProgressHandle`] and
//!    publishes, so the engine itself gains no new conditional — the
//!    cost lives inside the (already monomorphized) observer hook.
//! 3. **Out-of-band transport.** The bus is a bounded queue behind a
//!    mutex taken only once per `stride` events; when it fills, the
//!    *oldest* snapshot is shed (the aggregator only ever needs the
//!    newest per source) and the shed is counted, never blocked on.
//!
//! # Aggregation semantics
//!
//! Each envelope carries a bus-global monotone `seq`. The aggregator
//! keeps, per source, the envelope with the highest `seq`, then merges
//! the survivors with [`MetricsRegistry::merge`] (counters add, gauges
//! max, histograms merge bucketwise — associative and commutative, as the
//! metrics proptests prove). Keeping a per-source maximum is itself
//! order-independent, so snapshots may arrive out of order, duplicated,
//! or interleaved across trials and the aggregate still converges to the
//! same registry.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cavenet_net::{
    DropReason, EventKind, FaultKind, Frame, FrameDropReason, MacState, NodeId, ProgressHandle,
    RouteEventKind, SimObserver, SimTime,
};

use crate::json::{parse, Json};
use crate::metrics::{scalar_u64, Counter, Gauge, HistogramId, MetricsRegistry};

/// Version stamped into every serialized [`SnapshotEnvelope`]. Bump on
/// any change to the envelope or registry-snapshot shape.
pub const STREAM_SCHEMA_VERSION: u32 = 2;

/// One published registry snapshot with its provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotEnvelope {
    /// The publishing source ("trial-17", "supervisor", ...).
    pub source: String,
    /// Bus-global publication sequence number; strictly increasing across
    /// every publisher of one bus, so a retried trial attempt's fresh
    /// snapshots still supersede its predecessor's.
    pub seq: u64,
    /// Virtual time the source had reached, in nanoseconds.
    pub sim_time_ns: u64,
    /// Engine events the source had dispatched (0 for non-trial sources).
    pub events: u64,
    /// The metrics snapshot itself.
    pub registry: MetricsRegistry,
}

impl SnapshotEnvelope {
    /// The envelope as JSON, the record shape of the campaign feed.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("v".into(), Json::num_u64(u64::from(STREAM_SCHEMA_VERSION))),
            ("source".into(), Json::str(self.source.clone())),
            ("seq".into(), Json::num_u64(self.seq)),
            ("t_ns".into(), Json::num_u64(self.sim_time_ns)),
            ("events".into(), Json::num_u64(self.events)),
            ("registry".into(), self.registry.snapshot()),
        ])
    }

    /// Rebuild an envelope from its [`to_json`](Self::to_json) shape.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed member, or a
    /// schema-version mismatch.
    pub fn from_json(json: &Json) -> Result<SnapshotEnvelope, String> {
        let v = json
            .get("v")
            .and_then(Json::as_u64)
            .ok_or("envelope: missing 'v'")?;
        if v != u64::from(STREAM_SCHEMA_VERSION) {
            return Err(format!(
                "envelope: schema version {v} != {STREAM_SCHEMA_VERSION}"
            ));
        }
        let source = json
            .get("source")
            .and_then(Json::as_str)
            .ok_or("envelope: missing 'source'")?
            .to_string();
        let field = |key: &str| {
            json.get(key)
                .and_then(scalar_u64)
                .ok_or_else(|| format!("envelope: missing or malformed '{key}'"))
        };
        Ok(SnapshotEnvelope {
            source,
            seq: field("seq")?,
            sim_time_ns: field("t_ns")?,
            events: field("events")?,
            registry: MetricsRegistry::from_json(
                json.get("registry").ok_or("envelope: missing 'registry'")?,
            )?,
        })
    }

    /// The single-line JSONL form of the campaign feed.
    pub fn render_line(&self) -> String {
        self.to_json().render()
    }

    /// Parse one feed line back into an envelope.
    ///
    /// # Errors
    ///
    /// Returns a message for JSON syntax errors or envelope-shape errors.
    pub fn parse_line(line: &str) -> Result<SnapshotEnvelope, String> {
        SnapshotEnvelope::from_json(&parse(line)?)
    }
}

#[derive(Debug)]
struct BusShared {
    queue: Mutex<VecDeque<SnapshotEnvelope>>,
    /// Next publication sequence number, global across publishers.
    seq: AtomicU64,
    /// Envelopes shed because the queue was full (oldest-first).
    shed: AtomicU64,
    capacity: usize,
}

/// A bounded multi-producer snapshot queue shared by every publisher of a
/// campaign. Cheap to clone (it is a handle); drained by the supervisor or
/// any tailer of the campaign feed.
#[derive(Debug, Clone)]
pub struct SnapshotBus {
    shared: Arc<BusShared>,
}

impl SnapshotBus {
    /// A bus holding at most `capacity` undrained snapshots (clamped to
    /// ≥ 1). When full, publishing sheds the oldest snapshot — the
    /// aggregator only needs the newest per source, so a slow drain
    /// degrades staleness, never correctness.
    pub fn new(capacity: usize) -> SnapshotBus {
        SnapshotBus {
            shared: Arc::new(BusShared {
                queue: Mutex::new(VecDeque::new()),
                seq: AtomicU64::new(0),
                shed: AtomicU64::new(0),
                capacity: capacity.max(1),
            }),
        }
    }

    /// A publisher stamping `source` on everything it publishes.
    pub fn publisher(&self, source: impl Into<String>) -> SnapshotPublisher {
        SnapshotPublisher {
            shared: Arc::clone(&self.shared),
            source: source.into(),
        }
    }

    /// Take every queued snapshot, in publication order.
    pub fn drain(&self) -> Vec<SnapshotEnvelope> {
        let mut queue = self.shared.queue.lock().expect("bus poisoned");
        queue.drain(..).collect()
    }

    /// Snapshots currently queued.
    pub fn len(&self) -> usize {
        self.shared.queue.lock().expect("bus poisoned").len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshots shed to capacity since the bus was created.
    pub fn shed(&self) -> u64 {
        self.shared.shed.load(Ordering::Relaxed)
    }
}

/// The producing half of a [`SnapshotBus`]: publishes registry snapshots
/// under a fixed source name. Clone-cheap (trial observers must be
/// cloneable for retry attempts).
#[derive(Debug, Clone)]
pub struct SnapshotPublisher {
    shared: Arc<BusShared>,
    source: String,
}

impl SnapshotPublisher {
    /// Publish one snapshot. Never blocks beyond the bus mutex; sheds the
    /// oldest queued snapshot when the bus is full.
    pub fn publish(&self, sim_time_ns: u64, events: u64, registry: &MetricsRegistry) {
        // fetch_add before the lock: seq order may differ from queue order
        // under contention, which the aggregator tolerates by design.
        let seq = self.shared.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let envelope = SnapshotEnvelope {
            source: self.source.clone(),
            seq,
            sim_time_ns,
            events,
            registry: registry.clone(),
        };
        let mut queue = self.shared.queue.lock().expect("bus poisoned");
        if queue.len() >= self.shared.capacity {
            queue.pop_front();
            self.shared.shed.fetch_add(1, Ordering::Relaxed);
        }
        queue.push_back(envelope);
    }
}

/// Folds per-source snapshots into one campaign-level registry while the
/// campaign runs.
///
/// Ingestion keeps, per source, the envelope with the highest `seq`;
/// [`merged`](Self::merged) then folds the survivors in deterministic
/// (source-name) order. Both steps are order-independent, so out-of-order
/// or duplicated arrival converges to the same aggregate — the
/// observability proptests drive this under random interleavings.
#[derive(Debug, Clone, Default)]
pub struct CampaignAggregator {
    latest: BTreeMap<String, SnapshotEnvelope>,
    stale: u64,
}

impl CampaignAggregator {
    /// An empty aggregator.
    pub fn new() -> CampaignAggregator {
        CampaignAggregator::default()
    }

    /// Ingest one envelope. Returns `false` (and counts it stale) when a
    /// newer snapshot from the same source has already been seen.
    pub fn ingest(&mut self, envelope: SnapshotEnvelope) -> bool {
        match self.latest.get(&envelope.source) {
            Some(current) if current.seq >= envelope.seq => {
                self.stale += 1;
                false
            }
            _ => {
                self.latest.insert(envelope.source.clone(), envelope);
                true
            }
        }
    }

    /// Ingest a batch (e.g. a [`SnapshotBus::drain`]).
    pub fn ingest_all(&mut self, envelopes: impl IntoIterator<Item = SnapshotEnvelope>) {
        for envelope in envelopes {
            self.ingest(envelope);
        }
    }

    /// Sources seen so far.
    pub fn sources(&self) -> usize {
        self.latest.len()
    }

    /// Envelopes rejected as stale.
    pub fn stale_dropped(&self) -> u64 {
        self.stale
    }

    /// The newest envelope from one source.
    pub fn latest(&self, source: &str) -> Option<&SnapshotEnvelope> {
        self.latest.get(source)
    }

    /// Every retained envelope, in source-name order.
    pub fn envelopes(&self) -> impl Iterator<Item = &SnapshotEnvelope> {
        self.latest.values()
    }

    /// The campaign-level registry: every source's newest snapshot merged
    /// (counters add, gauges max, histograms bucketwise).
    pub fn merged(&self) -> MetricsRegistry {
        let mut merged = MetricsRegistry::new();
        for envelope in self.latest.values() {
            merged.merge(&envelope.registry);
        }
        merged
    }
}

/// The per-trial observer of a supervised exact trial: it carries the
/// trial's heartbeat and, when armed, fills and feeds the trial's live
/// [`MetricsRegistry`].
///
/// One countdown drives both. Every `stride` dispatched events the probe
/// [beats](ProgressHandle::beat) the trial's [`ProgressHandle`] with the
/// events it has seen and the virtual time reached, which unwinds the
/// trial if the watchdog has raised a stall. An armed probe then stamps
/// those two figures into its registry and publishes it onto a
/// [`SnapshotBus`]; its other hooks count frames, MAC transitions, packet
/// fates, faults and route discoveries straight into the registry, so a
/// dispatch writes nothing there. Without a publisher there is no
/// telemetry to feed, and every other hook is one `Option` test on a thin
/// pointer. Either way the probe stays digest-invisible (see the module
/// docs). It deliberately keeps the default empty checkpoint
/// `capture_state`/`restore_state`, so a resumed attempt restarts its
/// count and its stream from a fresh registry segment rather than
/// dragging pre-crash samples into the new attempt's feed.
#[derive(Debug, Clone)]
pub struct StreamProbe {
    handle: ProgressHandle,
    stride: u64,
    /// Dispatches until the next beat: counting down fires at exactly the
    /// multiples of `stride`, without a division per event.
    until_beat: u64,
    events: u64,
    now: SimTime,
    feed: Option<Box<Feed>>,
}

/// What an armed probe adds: the registry it fills and where it goes.
#[derive(Debug, Clone)]
struct Feed {
    registry: MetricsRegistry,
    /// Origination time of every data packet still in flight, for the
    /// delivery-latency histogram. Only ever probed by uid, never
    /// iterated, so its randomized order cannot leak into any output.
    origin_times: HashMap<u64, SimTime>,
    publisher: SnapshotPublisher,
}

impl Feed {
    /// Stamp the probe's dispatch count and virtual time into the registry
    /// and publish it.
    fn publish(&mut self, now: SimTime, events: u64) {
        // Counters only grow: add the dispatches since the last publish.
        let published = self.registry.counter(Counter::EventsDispatched);
        self.registry
            .add(Counter::EventsDispatched, events - published);
        self.registry.set(Gauge::SimTimeNs, now.as_nanos());
        self.publisher
            .publish(now.as_nanos(), events, &self.registry);
    }
}

impl StreamProbe {
    /// A probe beating `handle` every `stride` dispatched events (clamped
    /// to ≥ 1) and, with a `publisher`, publishing its registry at each
    /// beat.
    pub fn new(
        handle: ProgressHandle,
        stride: u64,
        publisher: Option<SnapshotPublisher>,
    ) -> StreamProbe {
        StreamProbe {
            handle,
            stride: stride.max(1),
            until_beat: stride.max(1),
            events: 0,
            now: SimTime::ZERO,
            feed: publisher.map(|publisher| {
                Box::new(Feed {
                    registry: MetricsRegistry::new(),
                    origin_times: HashMap::new(),
                    publisher,
                })
            }),
        }
    }

    /// A probe publishing onto `publisher` every `stride` dispatched
    /// events, beating a handle of its own.
    pub fn armed(publisher: SnapshotPublisher, stride: u64) -> StreamProbe {
        StreamProbe::new(ProgressHandle::new(), stride, Some(publisher))
    }

    /// Derive the final gauges and publish one last snapshot so the feed's
    /// tail equals the trial's final registry. Returns that registry when
    /// armed.
    pub fn finish_and_publish(&mut self) -> Option<MetricsRegistry> {
        let feed = self.feed.as_deref_mut()?;
        feed.registry
            .set(Gauge::PacketsInFlight, feed.origin_times.len() as u64);
        feed.publish(self.now, self.events);
        Some(feed.registry.clone())
    }

    /// Count one occurrence of `counter` when armed.
    fn count(&mut self, counter: Counter) {
        if let Some(feed) = self.feed.as_deref_mut() {
            feed.registry.inc(counter);
        }
    }
}

impl SimObserver for StreamProbe {
    fn on_event_dispatched(&mut self, now: SimTime, _seq: u64, _node: usize, _kind: EventKind) {
        self.events += 1;
        self.now = now;
        self.until_beat -= 1;
        if self.until_beat == 0 {
            self.until_beat = self.stride;
            self.handle.beat(now, self.events);
            if let Some(feed) = self.feed.as_deref_mut() {
                feed.publish(now, self.events);
            }
        }
    }

    fn on_frame_tx(&mut self, _now: SimTime, _node: usize, frame: &Frame) {
        if let Some(feed) = self.feed.as_deref_mut() {
            feed.registry.inc(Counter::FramesTx);
            feed.registry
                .observe(HistogramId::FrameSizeBytes, u64::from(frame.size_bytes));
        }
    }

    fn on_frame_rx(&mut self, _now: SimTime, _node: usize, _frame: &Frame) {
        self.count(Counter::FramesRx);
    }

    fn on_frame_drop(&mut self, _now: SimTime, _node: usize, _reason: FrameDropReason) {
        self.count(Counter::FramesDropped);
    }

    fn on_mac_transition(&mut self, _now: SimTime, _node: NodeId, _from: MacState, _to: MacState) {
        self.count(Counter::MacTransitions);
    }

    fn on_packet_originated(&mut self, now: SimTime, _node: NodeId, uid: u64) {
        if let Some(feed) = self.feed.as_deref_mut() {
            feed.registry.inc(Counter::PacketsOriginated);
            feed.origin_times.insert(uid, now);
        }
    }

    fn on_packet_delivered(&mut self, now: SimTime, _node: NodeId, uid: u64) {
        if let Some(feed) = self.feed.as_deref_mut() {
            feed.registry.inc(Counter::PacketsDelivered);
            if let Some(t0) = feed.origin_times.remove(&uid) {
                feed.registry.observe(
                    HistogramId::DeliveryLatencyNs,
                    now.saturating_since(t0).as_nanos() as u64,
                );
            }
        }
    }

    fn on_packet_dropped(&mut self, _now: SimTime, _node: NodeId, uid: u64, _reason: DropReason) {
        if let Some(feed) = self.feed.as_deref_mut() {
            feed.registry.inc(Counter::PacketsDropped);
            feed.origin_times.remove(&uid);
        }
    }

    fn on_fault(&mut self, _now: SimTime, _node: NodeId, _kind: FaultKind) {
        self.count(Counter::Faults);
    }

    fn on_route_event(&mut self, _now: SimTime, _node: NodeId, _dst: NodeId, kind: RouteEventKind) {
        self.count(match kind {
            RouteEventKind::DiscoveryStart => Counter::RouteDiscoveryStarts,
            RouteEventKind::DiscoveryRetry => Counter::RouteDiscoveryRetries,
            RouteEventKind::DiscoverySuccess => Counter::RouteDiscoverySuccesses,
            _ => Counter::RouteDiscoveryFailures,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cavenet_net::{CancelSignal, TrialCancelled};

    fn registry_with(c: Counter, n: u64) -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        r.add(c, n);
        r
    }

    #[test]
    fn bus_orders_and_sheds_oldest() {
        let bus = SnapshotBus::new(2);
        let p = bus.publisher("t");
        p.publish(1, 10, &registry_with(Counter::FramesTx, 1));
        p.publish(2, 20, &registry_with(Counter::FramesTx, 2));
        p.publish(3, 30, &registry_with(Counter::FramesTx, 3));
        assert_eq!(bus.shed(), 1, "capacity 2: oldest shed");
        let drained = bus.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].seq, 2);
        assert_eq!(drained[1].seq, 3);
        assert!(bus.is_empty());
    }

    #[test]
    fn seq_is_global_across_publishers() {
        let bus = SnapshotBus::new(8);
        let a = bus.publisher("a");
        let b = bus.publisher("b");
        a.publish(0, 0, &MetricsRegistry::new());
        b.publish(0, 0, &MetricsRegistry::new());
        a.publish(0, 0, &MetricsRegistry::new());
        let seqs: Vec<u64> = bus.drain().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
    }

    #[test]
    fn aggregator_keeps_newest_per_source_and_counts_stale() {
        let mut agg = CampaignAggregator::new();
        let newer = SnapshotEnvelope {
            source: "t1".into(),
            seq: 5,
            sim_time_ns: 50,
            events: 500,
            registry: registry_with(Counter::FramesTx, 50),
        };
        let older = SnapshotEnvelope {
            seq: 3,
            sim_time_ns: 30,
            events: 300,
            registry: registry_with(Counter::FramesTx, 30),
            ..newer.clone()
        };
        assert!(agg.ingest(newer.clone()));
        assert!(!agg.ingest(older), "stale arrival rejected");
        assert_eq!(agg.stale_dropped(), 1);
        assert_eq!(agg.latest("t1"), Some(&newer));
        assert_eq!(agg.merged().counter(Counter::FramesTx), 50);
    }

    #[test]
    fn envelope_feed_line_round_trips() {
        let envelope = SnapshotEnvelope {
            source: "trial-7".into(),
            seq: 42,
            sim_time_ns: 1_000_000_007,
            events: 4096,
            registry: registry_with(Counter::PacketsDelivered, 17),
        };
        let line = envelope.render_line();
        assert_eq!(SnapshotEnvelope::parse_line(&line).unwrap(), envelope);
        assert!(SnapshotEnvelope::parse_line("{}").is_err());
    }

    /// A probe with no publisher, beating `handle` every `stride` events.
    fn heartbeat(handle: &ProgressHandle, stride: u64) -> StreamProbe {
        StreamProbe::new(handle.clone(), stride, None)
    }

    fn dispatch(probe: &mut StreamProbe, n: u64) {
        for i in 0..n {
            probe.on_event_dispatched(SimTime::from_nanos(i), i, 0, EventKind::MacTimer);
        }
    }

    /// A probe without a publisher feeds nothing; only its heartbeat runs.
    #[test]
    fn disarmed_probe_is_inert() {
        let handle = ProgressHandle::new();
        let mut probe = heartbeat(&handle, 1);
        probe.on_event_dispatched(SimTime::from_nanos(1), 0, 0, EventKind::MacTimer);
        assert!(probe.finish_and_publish().is_none());
        assert_eq!(handle.beats(), 1);
    }

    #[test]
    fn heartbeat_publishes_every_stride() {
        let handle = ProgressHandle::new();
        let mut probe = heartbeat(&handle, 8);
        dispatch(&mut probe, 7);
        assert_eq!(handle.beats(), 0, "below stride: nothing published");
        dispatch(&mut probe, 1);
        assert_eq!(handle.beats(), 8);
        dispatch(&mut probe, 20);
        assert_eq!(handle.beats(), 24, "stride-rounded");
    }

    #[test]
    fn heartbeat_carries_sim_time() {
        let handle = ProgressHandle::new();
        let mut probe = heartbeat(&handle, 4);
        for t in [10u64, 20, 30] {
            probe.on_event_dispatched(SimTime::from_nanos(t), t, 0, EventKind::MacTimer);
        }
        assert_eq!(
            handle.sim_time(),
            SimTime::ZERO,
            "below stride: nothing published"
        );
        probe.on_event_dispatched(SimTime::from_nanos(40), 3, 0, EventKind::MacTimer);
        assert_eq!(
            handle.sim_time(),
            SimTime::from_nanos(40),
            "published with the beat"
        );
        assert_eq!(handle.beats(), 4);
    }

    #[test]
    fn stall_cancel_unwinds_with_typed_payload() {
        let handle = ProgressHandle::new();
        let mut probe = heartbeat(&handle, 4);
        handle.cancel(CancelSignal::Stall);
        dispatch(&mut probe, 3);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dispatch(&mut probe, 1);
        }));
        let payload = caught.expect_err("stall cancel must unwind at the beat");
        assert!(payload.is::<TrialCancelled>());
    }

    #[test]
    fn shutdown_signal_does_not_unwind() {
        let handle = ProgressHandle::new();
        let mut probe = heartbeat(&handle, 2);
        handle.cancel(CancelSignal::Shutdown);
        dispatch(&mut probe, 10);
        assert_eq!(handle.beats(), 10);
        assert_eq!(handle.signal(), CancelSignal::Shutdown);
    }

    #[test]
    fn zero_stride_is_clamped() {
        let handle = ProgressHandle::new();
        let mut probe = heartbeat(&handle, 0);
        dispatch(&mut probe, 2);
        assert_eq!(handle.beats(), 2);
    }

    /// The drive loop's slice-end beat goes straight to the handle and leaves
    /// the probe's countdown where it was.
    #[test]
    fn direct_beats_do_not_shift_the_stride_schedule() {
        let handle = ProgressHandle::new();
        let mut probe = heartbeat(&handle, 5);
        dispatch(&mut probe, 3);
        handle.beat(SimTime::from_nanos(2), 3);
        assert_eq!(handle.beats(), 3, "a direct beat publishes the exact count");
        dispatch(&mut probe, 2);
        assert_eq!(handle.beats(), 5, "the automatic beat still lands on 5");
        dispatch(&mut probe, 4);
        assert_eq!(handle.beats(), 5);
        dispatch(&mut probe, 1);
        assert_eq!(handle.beats(), 10);
    }

    /// An armed probe publishes at exactly its beats, and a stall unwinds
    /// before the snapshot of the stalled stride goes out.
    #[test]
    fn one_countdown_beats_then_publishes() {
        let bus = SnapshotBus::new(64);
        let handle = ProgressHandle::new();
        let mut probe = StreamProbe::new(handle.clone(), 4, Some(bus.publisher("t")));
        dispatch(&mut probe, 9);
        assert_eq!(handle.beats(), 8);
        let events: Vec<u64> = bus.drain().iter().map(|e| e.events).collect();
        assert_eq!(events, vec![4, 8]);
        handle.cancel(CancelSignal::Stall);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dispatch(&mut probe, 3);
        }));
        assert!(caught
            .expect_err("stall must unwind")
            .is::<TrialCancelled>());
        assert_eq!(handle.beats(), 12);
        assert!(bus.is_empty(), "the stalled stride publishes nothing");
    }

    #[test]
    fn armed_probe_publishes_on_stride_and_at_finish() {
        let bus = SnapshotBus::new(64);
        let mut probe = StreamProbe::armed(bus.publisher("t"), 4);
        for i in 0..10u64 {
            probe.on_event_dispatched(SimTime::from_nanos(i), i, 0, EventKind::MacTimer);
        }
        let final_registry = probe.finish_and_publish().expect("armed");
        let drained = bus.drain();
        assert_eq!(
            drained.len(),
            3,
            "strides at 4 and 8, plus the finish flush"
        );
        assert_eq!(drained[0].events, 4);
        assert_eq!(drained[1].events, 8);
        assert_eq!(drained[2].events, 10);
        assert_eq!(drained[2].registry, final_registry);
        assert_eq!(final_registry.counter(Counter::EventsDispatched), 10);
    }

    #[test]
    fn observer_is_enabled() {
        // A compile-time check: the probe's hooks must actually fire.
        const { assert!(StreamProbe::ENABLED) }
    }

    /// A probe armed with a stride no test reaches: it publishes only at
    /// [`StreamProbe::finish_and_publish`].
    fn armed_until_finish() -> StreamProbe {
        StreamProbe::armed(SnapshotBus::new(4).publisher("t"), u64::MAX)
    }

    #[test]
    fn latency_histogram_uses_origin_times() {
        let mut probe = armed_until_finish();
        let node = NodeId(0);
        probe.on_packet_originated(SimTime::from_nanos(100), node, 7);
        probe.on_packet_delivered(SimTime::from_nanos(350), node, 7);
        // Delivery of an unknown uid (MAC duplicate) records nothing.
        probe.on_packet_delivered(SimTime::from_nanos(400), node, 7);
        let registry = probe.finish_and_publish().expect("armed");
        let h = registry.histogram(HistogramId::DeliveryLatencyNs);
        assert_eq!((h.count(), h.sum()), (1, 250));
    }

    #[test]
    fn finish_reports_in_flight_packets() {
        let mut probe = armed_until_finish();
        probe.on_packet_originated(SimTime::from_nanos(1), NodeId(1), 1);
        probe.on_packet_originated(SimTime::from_nanos(2), NodeId(2), 2);
        probe.on_packet_dropped(SimTime::from_nanos(3), NodeId(2), 2, DropReason::NoRoute);
        let registry = probe.finish_and_publish().expect("armed");
        assert_eq!(registry.gauge(Gauge::PacketsInFlight), 1);
        assert_eq!(registry.counter(Counter::PacketsDropped), 1);
    }
}
