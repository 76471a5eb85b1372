//! Fixed-slot metrics: counters, gauges and log-scale histograms.
//!
//! Metric identity is a Rust enum, not a string — recording is an array
//! index plus an add, with no hashing or allocation on the hot path, and a
//! snapshot always lists metrics in declaration order, so two runs of the
//! same binary produce byte-identical snapshots.

use crate::json::Json;

/// Monotonic counters, one slot each in [`MetricsRegistry`].
///
/// Slots fall into two families sharing the one registry so every sink
/// (snapshot bus, JSONL feed, Prometheus exposition) works unchanged:
/// engine counters fed by the [`StreamProbe`](crate::StreamProbe) and
/// campaign-supervisor counters fed by `cavenet-server`. A source only
/// ever touches its own family; the merge semantics (counters add) keep
/// foreign slots at zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Engine events dispatched.
    EventsDispatched,
    /// Frames put on the air.
    FramesTx,
    /// Frames successfully received.
    FramesRx,
    /// Frames lost in flight (collision, below sensitivity, ...).
    FramesDropped,
    /// MAC DCF state transitions.
    MacTransitions,
    /// Data packets that entered the network.
    PacketsOriginated,
    /// Data packets delivered to a destination application.
    PacketsDelivered,
    /// Data packets that ended in a drop.
    PacketsDropped,
    /// Route discoveries started.
    RouteDiscoveryStarts,
    /// Route-discovery retries.
    RouteDiscoveryRetries,
    /// Route discoveries that installed a route.
    RouteDiscoverySuccesses,
    /// Route discoveries abandoned.
    RouteDiscoveryFailures,
    /// Fault events (crashes and recoveries).
    Faults,
    /// Supervisor: trials admitted for execution.
    TrialsSubmitted,
    /// Supervisor: trials that reached a completed outcome.
    TrialsCompleted,
    /// Supervisor: failed attempts re-queued after a backoff wait.
    TrialRetries,
    /// Supervisor: submissions shed by admission control.
    AdmissionSheds,
    /// Supervisor: watchdog stall cancellations raised.
    WatchdogStalls,
    /// Supervisor: trials written off as lost (wedged past the grace).
    TrialsLost,
    /// Supervisor: trials quarantined as poison.
    TrialsQuarantined,
}

impl Counter {
    /// Number of counters.
    pub const COUNT: usize = 20;

    /// All counters, in declaration (= snapshot) order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::EventsDispatched,
        Counter::FramesTx,
        Counter::FramesRx,
        Counter::FramesDropped,
        Counter::MacTransitions,
        Counter::PacketsOriginated,
        Counter::PacketsDelivered,
        Counter::PacketsDropped,
        Counter::RouteDiscoveryStarts,
        Counter::RouteDiscoveryRetries,
        Counter::RouteDiscoverySuccesses,
        Counter::RouteDiscoveryFailures,
        Counter::Faults,
        Counter::TrialsSubmitted,
        Counter::TrialsCompleted,
        Counter::TrialRetries,
        Counter::AdmissionSheds,
        Counter::WatchdogStalls,
        Counter::TrialsLost,
        Counter::TrialsQuarantined,
    ];

    /// Stable snake_case name used in snapshots.
    pub fn name(self) -> &'static str {
        match self {
            Counter::EventsDispatched => "events_dispatched",
            Counter::FramesTx => "frames_tx",
            Counter::FramesRx => "frames_rx",
            Counter::FramesDropped => "frames_dropped",
            Counter::MacTransitions => "mac_transitions",
            Counter::PacketsOriginated => "packets_originated",
            Counter::PacketsDelivered => "packets_delivered",
            Counter::PacketsDropped => "packets_dropped",
            Counter::RouteDiscoveryStarts => "route_discovery_starts",
            Counter::RouteDiscoveryRetries => "route_discovery_retries",
            Counter::RouteDiscoverySuccesses => "route_discovery_successes",
            Counter::RouteDiscoveryFailures => "route_discovery_failures",
            Counter::Faults => "faults",
            Counter::TrialsSubmitted => "trials_submitted",
            Counter::TrialsCompleted => "trials_completed",
            Counter::TrialRetries => "trial_retries",
            Counter::AdmissionSheds => "admission_sheds",
            Counter::WatchdogStalls => "watchdog_stalls",
            Counter::TrialsLost => "trials_lost",
            Counter::TrialsQuarantined => "trials_quarantined",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<Counter> {
        Counter::ALL.into_iter().find(|c| c.name() == name)
    }
}

/// Last-write-wins gauges.
///
/// Under [`MetricsRegistry::merge`] gauges combine by maximum, so every
/// slot here must be a quantity whose campaign-level reading *is* the max
/// over sources (high-water marks, frontier times). Averages or
/// instantaneous mixtures do not belong in this enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gauge {
    /// Virtual time of the most recently dispatched event, in nanoseconds.
    SimTimeNs,
    /// Data packets originated but not yet delivered or dropped.
    PacketsInFlight,
    /// Supervisor: jobs waiting in the admission queue (high-water mark
    /// when merged).
    QueueDepth,
    /// Supervisor: failed trials parked in backoff (high-water mark when
    /// merged).
    BackoffParked,
    /// Supervisor: trials currently claimed by workers (high-water mark
    /// when merged).
    RunningTrials,
    /// Supervisor: worker threads alive.
    WorkersAlive,
    /// Supervisor: most-advanced in-flight trial sim-time, in nanoseconds.
    MaxTrialSimTimeNs,
}

impl Gauge {
    /// Number of gauges.
    pub const COUNT: usize = 7;

    /// All gauges, in declaration (= snapshot) order.
    pub const ALL: [Gauge; Gauge::COUNT] = [
        Gauge::SimTimeNs,
        Gauge::PacketsInFlight,
        Gauge::QueueDepth,
        Gauge::BackoffParked,
        Gauge::RunningTrials,
        Gauge::WorkersAlive,
        Gauge::MaxTrialSimTimeNs,
    ];

    /// Stable snake_case name used in snapshots.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::SimTimeNs => "sim_time_ns",
            Gauge::PacketsInFlight => "packets_in_flight",
            Gauge::QueueDepth => "queue_depth",
            Gauge::BackoffParked => "backoff_parked",
            Gauge::RunningTrials => "running_trials",
            Gauge::WorkersAlive => "workers_alive",
            Gauge::MaxTrialSimTimeNs => "max_trial_sim_time_ns",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<Gauge> {
        Gauge::ALL.into_iter().find(|g| g.name() == name)
    }
}

/// Log-scale histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HistogramId {
    /// End-to-end data-packet latency, origination to delivery, in
    /// nanoseconds.
    DeliveryLatencyNs,
    /// Transmitted frame sizes in bytes.
    FrameSizeBytes,
    /// Supervisor: backoff delays served before retry re-queues, in
    /// nanoseconds.
    BackoffDelayNs,
}

impl HistogramId {
    /// Number of histograms.
    pub const COUNT: usize = 3;

    /// All histograms, in declaration (= snapshot) order.
    pub const ALL: [HistogramId; HistogramId::COUNT] = [
        HistogramId::DeliveryLatencyNs,
        HistogramId::FrameSizeBytes,
        HistogramId::BackoffDelayNs,
    ];

    /// Stable snake_case name used in snapshots.
    pub fn name(self) -> &'static str {
        match self {
            HistogramId::DeliveryLatencyNs => "delivery_latency_ns",
            HistogramId::FrameSizeBytes => "frame_size_bytes",
            HistogramId::BackoffDelayNs => "backoff_delay_ns",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<HistogramId> {
        HistogramId::ALL.into_iter().find(|h| h.name() == name)
    }
}

/// Read a `u64` out of either JSON shape [`Json::num_u64`] produces: a
/// plain number up to 2^53, or a decimal string above it.
pub(crate) fn scalar_u64(json: &Json) -> Option<u64> {
    match json {
        Json::Str(s) => s.parse::<u64>().ok(),
        _ => json.as_u64(),
    }
}

/// A base-2 log-scale histogram over `u64` samples.
///
/// Bucket `b` holds samples `v` with `⌈log2(v+1)⌉ = b` — bucket 0 is the
/// value 0, bucket 1 the value 1, bucket 2 the values 2–3, and so on up to
/// bucket 64. Recording is a handful of integer ops; `merge` is bucketwise
/// addition, which makes it associative and commutative — ensemble shards
/// can be merged in any order or grouping and yield the same histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; Histogram::BUCKETS],
    count: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; Histogram::BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// Bucket count: one per bit of a `u64`, plus the zero bucket.
    pub const BUCKETS: usize = 65;

    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index a value falls into.
    pub fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += u128::from(value);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// The raw bucket array.
    pub fn buckets(&self) -> &[u64; Histogram::BUCKETS] {
        &self.buckets
    }

    /// Fold another histogram into this one (bucketwise addition).
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Rebuild a histogram from its [`to_json`](Self::to_json) shape.
    ///
    /// `mean` is derived and ignored; `count`, `sum` and the buckets come
    /// back exactly, since each is written as a decimal string above 2^53
    /// (the [`Json::Num`] precision limit). Trailing buckets beyond the
    /// serialized prefix are zero.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed member.
    pub fn from_json(json: &Json) -> Result<Histogram, String> {
        let count = json
            .get("count")
            .and_then(scalar_u64)
            .ok_or("histogram: missing or malformed 'count'")?;
        let sum = json
            .get("sum")
            .and_then(|j| match j {
                Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 => Some(*v as u128),
                Json::Str(s) => s.parse::<u128>().ok(),
                _ => None,
            })
            .ok_or("histogram: missing or malformed 'sum'")?;
        let Some(Json::Arr(items)) = json.get("buckets") else {
            return Err("histogram: missing or malformed 'buckets'".into());
        };
        if items.len() > Histogram::BUCKETS {
            return Err(format!(
                "histogram: {} buckets exceed the schema",
                items.len()
            ));
        }
        let mut h = Histogram::new();
        for (i, item) in items.iter().enumerate() {
            h.buckets[i] =
                scalar_u64(item).ok_or_else(|| format!("histogram: bucket {i} malformed"))?;
        }
        h.count = count;
        h.sum = sum;
        if h.buckets.iter().sum::<u64>() != count {
            return Err("histogram: bucket total disagrees with 'count'".into());
        }
        Ok(h)
    }

    /// Snapshot as JSON: count, sum, mean and the buckets up to the last
    /// non-empty one.
    pub fn to_json(&self) -> Json {
        let last = self
            .buckets
            .iter()
            .rposition(|&b| b > 0)
            .map_or(0, |i| i + 1);
        Json::Obj(vec![
            ("count".into(), Json::num_u64(self.count)),
            (
                "sum".into(),
                u64::try_from(self.sum)
                    .map_or_else(|_| Json::Str(self.sum.to_string()), Json::num_u64),
            ),
            ("mean".into(), self.mean().map_or(Json::Null, Json::Num)),
            (
                "buckets".into(),
                Json::Arr(
                    self.buckets[..last]
                        .iter()
                        .map(|&b| Json::num_u64(b))
                        .collect(),
                ),
            ),
        ])
    }
}

/// The metrics registry: every counter, gauge and histogram in fixed
/// slots, populated by the [`StreamProbe`](crate::StreamProbe) and the
/// campaign supervisor.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsRegistry {
    counters: [u64; Counter::COUNT],
    gauges: [u64; Gauge::COUNT],
    histograms: [Histogram; HistogramId::COUNT],
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment a counter by 1.
    pub fn inc(&mut self, c: Counter) {
        self.counters[c as usize] += 1;
    }

    /// Increment a counter by `n`.
    pub fn add(&mut self, c: Counter, n: u64) {
        self.counters[c as usize] += n;
    }

    /// Read a counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Set a gauge.
    pub fn set(&mut self, g: Gauge, value: u64) {
        self.gauges[g as usize] = value;
    }

    /// Read a gauge.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize]
    }

    /// Record a histogram sample.
    pub fn observe(&mut self, h: HistogramId, value: u64) {
        self.histograms[h as usize].record(value);
    }

    /// Read a histogram.
    pub fn histogram(&self, h: HistogramId) -> &Histogram {
        &self.histograms[h as usize]
    }

    /// Fold another registry into this one: counters add, gauges take the
    /// maximum, histograms merge bucketwise. Used to combine per-shard
    /// registries from an ensemble run.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (mine, theirs) in self.counters.iter_mut().zip(other.counters.iter()) {
            *mine += theirs;
        }
        for (mine, theirs) in self.gauges.iter_mut().zip(other.gauges.iter()) {
            *mine = (*mine).max(*theirs);
        }
        for (mine, theirs) in self.histograms.iter_mut().zip(other.histograms.iter()) {
            mine.merge(theirs);
        }
    }

    /// Rebuild a registry from its [`snapshot`](Self::snapshot) shape, the
    /// read side of the JSONL campaign feed. Unknown member names are an
    /// error (a schema drift should fail loudly, not drop data); missing
    /// members default to zero/empty so older feeds stay readable.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending section and member.
    pub fn from_json(json: &Json) -> Result<MetricsRegistry, String> {
        // The members of one section; none when it is absent.
        let section = |key: &str| match json.get(key) {
            None => Ok(&[][..]),
            Some(Json::Obj(members)) => Ok(&members[..]),
            Some(_) => Err(format!("registry: '{key}' is not an object")),
        };
        let mut r = MetricsRegistry::new();
        for (name, value) in section("counters")? {
            let c = Counter::from_name(name)
                .ok_or_else(|| format!("registry: unknown counter '{name}'"))?;
            r.counters[c as usize] =
                scalar_u64(value).ok_or_else(|| format!("registry: counter '{name}' malformed"))?;
        }
        for (name, value) in section("gauges")? {
            let g = Gauge::from_name(name)
                .ok_or_else(|| format!("registry: unknown gauge '{name}'"))?;
            r.gauges[g as usize] =
                scalar_u64(value).ok_or_else(|| format!("registry: gauge '{name}' malformed"))?;
        }
        for (name, value) in section("histograms")? {
            let h = HistogramId::from_name(name)
                .ok_or_else(|| format!("registry: unknown histogram '{name}'"))?;
            r.histograms[h as usize] = Histogram::from_json(value)
                .map_err(|e| format!("registry: histogram '{name}': {e}"))?;
        }
        Ok(r)
    }

    /// Snapshot every metric, in declaration order, as a JSON object with
    /// `counters` / `gauges` / `histograms` sections.
    pub fn snapshot(&self) -> Json {
        Json::Obj(vec![
            (
                "counters".into(),
                Json::Obj(
                    Counter::ALL
                        .iter()
                        .map(|&c| (c.name().to_string(), Json::num_u64(self.counter(c))))
                        .collect(),
                ),
            ),
            (
                "gauges".into(),
                Json::Obj(
                    Gauge::ALL
                        .iter()
                        .map(|&g| (g.name().to_string(), Json::num_u64(self.gauge(g))))
                        .collect(),
                ),
            ),
            (
                "histograms".into(),
                Json::Obj(
                    HistogramId::ALL
                        .iter()
                        .map(|&h| (h.name().to_string(), self.histogram(h).to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn registry_records_and_snapshots_deterministically() {
        let mut r = MetricsRegistry::new();
        r.inc(Counter::FramesTx);
        r.add(Counter::FramesTx, 2);
        r.set(Gauge::SimTimeNs, 123);
        r.observe(HistogramId::FrameSizeBytes, 512);
        assert_eq!(r.counter(Counter::FramesTx), 3);
        assert_eq!(r.gauge(Gauge::SimTimeNs), 123);
        assert_eq!(r.histogram(HistogramId::FrameSizeBytes).count(), 1);
        assert_eq!(r.snapshot().render(), r.clone().snapshot().render());
    }

    #[test]
    fn merge_adds_counters_and_maxes_gauges() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.add(Counter::FramesRx, 5);
        b.add(Counter::FramesRx, 7);
        a.set(Gauge::PacketsInFlight, 2);
        b.set(Gauge::PacketsInFlight, 9);
        a.merge(&b);
        assert_eq!(a.counter(Counter::FramesRx), 12);
        assert_eq!(a.gauge(Gauge::PacketsInFlight), 9);
    }

    #[test]
    fn snapshot_round_trips_through_from_json() {
        let mut r = MetricsRegistry::new();
        r.add(Counter::FramesTx, 41);
        r.add(Counter::TrialRetries, 3);
        r.set(Gauge::QueueDepth, 9);
        r.set(Gauge::MaxTrialSimTimeNs, 40_000_000_000);
        r.observe(HistogramId::BackoffDelayNs, 250_000_000);
        r.observe(HistogramId::DeliveryLatencyNs, 1_234_567);
        let back = MetricsRegistry::from_json(&r.snapshot()).expect("round trip");
        assert_eq!(back, r);
    }

    /// A sum above 2^53 is no longer exact as a JSON number; it must come
    /// back through the rendered snapshot unchanged.
    #[test]
    fn histogram_sum_above_2_pow_53_round_trips() {
        let mut r = MetricsRegistry::new();
        r.observe(HistogramId::DeliveryLatencyNs, (1 << 53) + 1);
        r.observe(HistogramId::FrameSizeBytes, u64::MAX);
        r.observe(HistogramId::FrameSizeBytes, u64::MAX);
        let text = r.snapshot().render();
        let back = MetricsRegistry::from_json(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn from_json_rejects_unknown_names() {
        let j = Json::Obj(vec![(
            "counters".into(),
            Json::Obj(vec![("no_such_counter".into(), Json::num_u64(1))]),
        )]);
        assert!(MetricsRegistry::from_json(&j).is_err());
    }

    #[test]
    fn name_maps_are_bijective() {
        for c in Counter::ALL {
            assert_eq!(Counter::from_name(c.name()), Some(c));
        }
        for g in Gauge::ALL {
            assert_eq!(Gauge::from_name(g.name()), Some(g));
        }
        for h in HistogramId::ALL {
            assert_eq!(HistogramId::from_name(h.name()), Some(h));
        }
    }

    fn hist_of(samples: &[u64]) -> Histogram {
        let mut h = Histogram::new();
        for &s in samples {
            h.record(s);
        }
        h
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Histogram merge is commutative: a ∪ b = b ∪ a.
        #[test]
        fn histogram_merge_commutes(
            xs in prop::collection::vec(0u64..1_000_000, 0..40),
            ys in prop::collection::vec(0u64..1_000_000, 0..40),
        ) {
            let (a, b) = (hist_of(&xs), hist_of(&ys));
            let mut ab = a;
            ab.merge(&b);
            let mut ba = b;
            ba.merge(&a);
            prop_assert_eq!(ab, ba);
        }

        /// Histogram merge is associative: (a ∪ b) ∪ c = a ∪ (b ∪ c), so
        /// ensemble shards may be reduced in any grouping.
        #[test]
        fn histogram_merge_is_associative(
            xs in prop::collection::vec(0u64..1_000_000, 0..40),
            ys in prop::collection::vec(0u64..1_000_000, 0..40),
            zs in prop::collection::vec(0u64..1_000_000, 0..40),
        ) {
            let (a, b, c) = (hist_of(&xs), hist_of(&ys), hist_of(&zs));
            let mut left = a;
            left.merge(&b);
            left.merge(&c);
            let mut bc = b;
            bc.merge(&c);
            let mut right = a;
            right.merge(&bc);
            prop_assert_eq!(left, right);
        }

        /// Merging equals recording the concatenated sample stream.
        #[test]
        fn histogram_merge_matches_concatenation(
            xs in prop::collection::vec(0u64..1_000_000, 0..40),
            ys in prop::collection::vec(0u64..1_000_000, 0..40),
        ) {
            let mut merged = hist_of(&xs);
            merged.merge(&hist_of(&ys));
            let mut all = xs.clone();
            all.extend_from_slice(&ys);
            prop_assert_eq!(merged, hist_of(&all));
        }
    }
}
