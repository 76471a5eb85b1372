//! The observer that feeds the metrics registry and the tracer.

use std::collections::HashMap;

use cavenet_net::{
    DropReason, EventKind, FaultKind, Frame, FrameDropReason, FrameKind, MacState, NodeId,
    RouteEventKind, SimObserver, SimTime,
};

use crate::json::Json;
use crate::metrics::{Counter, Gauge, HistogramId, MetricsRegistry};
use crate::trace::{TraceCategory, TraceConfig, TraceRecord, Tracer};

fn mac_state_name(s: MacState) -> &'static str {
    match s {
        MacState::Idle => "idle",
        MacState::WaitIdle => "wait_idle",
        MacState::WaitDifs => "wait_difs",
        MacState::Backoff => "backoff",
        MacState::Transmitting => "transmitting",
        MacState::WaitAck => "wait_ack",
        MacState::WaitCts => "wait_cts",
    }
}

fn frame_kind_name(k: FrameKind) -> &'static str {
    match k {
        FrameKind::Data => "data",
        FrameKind::Ack => "ack",
        FrameKind::Rts => "rts",
        FrameKind::Cts => "cts",
    }
}

fn frame_drop_name(r: FrameDropReason) -> &'static str {
    match r {
        FrameDropReason::Collision => "collision",
        FrameDropReason::BelowThreshold => "below_threshold",
        FrameDropReason::NodeDown => "node_down",
        _ => "unknown",
    }
}

/// Stable snake_case name of a packet-drop reason.
pub fn drop_reason_name(r: DropReason) -> &'static str {
    match r {
        DropReason::QueueOverflow => "queue_overflow",
        DropReason::RetryLimit => "retry_limit",
        DropReason::NoRoute => "no_route",
        DropReason::TtlExpired => "ttl_expired",
        DropReason::QueueTimeout => "queue_timeout",
        DropReason::DiscoveryFailed => "discovery_failed",
        DropReason::NodeDown => "node_down",
        _ => "unknown",
    }
}

fn route_event_name(k: RouteEventKind) -> &'static str {
    match k {
        RouteEventKind::DiscoveryStart => "discovery_start",
        RouteEventKind::DiscoveryRetry => "discovery_retry",
        RouteEventKind::DiscoverySuccess => "discovery_success",
        RouteEventKind::DiscoveryFailure => "discovery_failure",
        _ => "unknown",
    }
}

fn event_kind_name(k: EventKind) -> &'static str {
    match k {
        EventKind::RxStart => "rx_start",
        EventKind::RxEnd => "rx_end",
        EventKind::TxEnd => "tx_end",
        EventKind::MacTimer => "mac_timer",
        EventKind::RoutingTimer => "routing_timer",
        EventKind::AppTimer => "app_timer",
        EventKind::Fault => "fault",
        _ => "unknown",
    }
}

/// A [`SimObserver`] that populates a [`MetricsRegistry`] and streams a
/// structured JSONL trace.
///
/// Attaching it (alone, or tee'd next to a conformance observer via
/// [`Tee`](cavenet_net::Tee)) never perturbs the simulation: every hook
/// only reads its arguments, and the engine's event stream, RNG draws and
/// statistics stay byte-identical to a
/// [`NoopObserver`](cavenet_net::NoopObserver) run — the golden digests
/// prove it.
///
/// Each hook updates the registry with array-indexed counter adds and
/// offers its trace record to the [`Tracer`], which builds the record only
/// if its configuration keeps it: with tracing off, a hook allocates
/// nothing.
///
/// The internal packet-origination map is only ever probed by uid (never
/// iterated), so its randomized iteration order cannot leak into any
/// output.
#[derive(Debug, Clone, Default)]
pub struct TelemetryObserver {
    registry: MetricsRegistry,
    tracer: Tracer,
    origin_times: HashMap<u64, SimTime>,
}

impl TelemetryObserver {
    /// An observer with the default (bounded) trace configuration.
    pub fn new() -> Self {
        Self::with_config(TraceConfig::default())
    }

    /// An observer with an explicit trace configuration.
    pub fn with_config(config: TraceConfig) -> Self {
        TelemetryObserver {
            registry: MetricsRegistry::new(),
            tracer: Tracer::new(config),
            origin_times: HashMap::new(),
        }
    }

    /// Refresh derived gauges. Call once after the run, before reading
    /// the registry.
    pub fn finish(&mut self) {
        self.registry
            .set(Gauge::PacketsInFlight, self.origin_times.len() as u64);
    }

    /// The populated metrics registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The trace stream.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }
}

impl SimObserver for TelemetryObserver {
    fn on_event_scheduled(&mut self, at: SimTime, seq: u64, node: usize, kind: EventKind) {
        self.tracer.record(TraceCategory::Sched, || TraceRecord {
            event: event_kind_name(kind),
            t_ns: at.as_nanos(),
            node: node as u64,
            span: seq,
            extra: Vec::new(),
        });
    }

    fn on_event_dispatched(&mut self, now: SimTime, _seq: u64, _node: usize, _kind: EventKind) {
        self.registry.inc(Counter::EventsDispatched);
        self.registry.set(Gauge::SimTimeNs, now.as_nanos());
    }

    fn on_frame_tx(&mut self, now: SimTime, node: usize, frame: &Frame) {
        self.registry.inc(Counter::FramesTx);
        self.registry
            .observe(HistogramId::FrameSizeBytes, u64::from(frame.size_bytes));
        self.tracer.record(TraceCategory::Frame, || TraceRecord {
            event: "tx",
            t_ns: now.as_nanos(),
            node: node as u64,
            span: frame.packet.as_ref().map_or(frame.ack_uid, |p| p.uid),
            extra: vec![
                ("kind", Json::str(frame_kind_name(frame.kind))),
                ("bytes", Json::num_u64(u64::from(frame.size_bytes))),
            ],
        });
    }

    fn on_frame_rx(&mut self, now: SimTime, node: usize, frame: &Frame) {
        self.registry.inc(Counter::FramesRx);
        self.tracer.record(TraceCategory::Frame, || TraceRecord {
            event: "rx",
            t_ns: now.as_nanos(),
            node: node as u64,
            span: frame.packet.as_ref().map_or(frame.ack_uid, |p| p.uid),
            extra: vec![("kind", Json::str(frame_kind_name(frame.kind)))],
        });
    }

    fn on_frame_drop(&mut self, now: SimTime, node: usize, reason: FrameDropReason) {
        self.registry.inc(Counter::FramesDropped);
        self.tracer.record(TraceCategory::Frame, || TraceRecord {
            event: "drop",
            t_ns: now.as_nanos(),
            node: node as u64,
            span: 0,
            extra: vec![("reason", Json::str(frame_drop_name(reason)))],
        });
    }

    fn on_mac_transition(&mut self, now: SimTime, node: NodeId, from: MacState, to: MacState) {
        self.registry.inc(Counter::MacTransitions);
        self.tracer.record(TraceCategory::Mac, || TraceRecord {
            event: "move",
            t_ns: now.as_nanos(),
            node: u64::from(node.0),
            span: 0,
            extra: vec![
                ("from", Json::str(mac_state_name(from))),
                ("to", Json::str(mac_state_name(to))),
            ],
        });
    }

    fn on_packet_originated(&mut self, now: SimTime, node: NodeId, uid: u64) {
        self.registry.inc(Counter::PacketsOriginated);
        self.origin_times.insert(uid, now);
        self.tracer.record(TraceCategory::Packet, || TraceRecord {
            event: "originate",
            t_ns: now.as_nanos(),
            node: u64::from(node.0),
            span: uid,
            extra: Vec::new(),
        });
    }

    fn on_packet_delivered(&mut self, now: SimTime, node: NodeId, uid: u64) {
        self.registry.inc(Counter::PacketsDelivered);
        if let Some(t0) = self.origin_times.remove(&uid) {
            self.registry.observe(
                HistogramId::DeliveryLatencyNs,
                now.saturating_since(t0).as_nanos() as u64,
            );
        }
        self.tracer.record(TraceCategory::Packet, || TraceRecord {
            event: "deliver",
            t_ns: now.as_nanos(),
            node: u64::from(node.0),
            span: uid,
            extra: Vec::new(),
        });
    }

    fn on_packet_dropped(&mut self, now: SimTime, node: NodeId, uid: u64, reason: DropReason) {
        self.registry.inc(Counter::PacketsDropped);
        self.origin_times.remove(&uid);
        self.tracer.record(TraceCategory::Packet, || TraceRecord {
            event: "drop",
            t_ns: now.as_nanos(),
            node: u64::from(node.0),
            span: uid,
            extra: vec![("reason", Json::str(drop_reason_name(reason)))],
        });
    }

    fn on_fault(&mut self, now: SimTime, node: NodeId, kind: FaultKind) {
        self.registry.inc(Counter::Faults);
        self.tracer.record(TraceCategory::Fault, || TraceRecord {
            event: match kind {
                FaultKind::Crash => "crash",
                FaultKind::Recover => "recover",
            },
            t_ns: now.as_nanos(),
            node: u64::from(node.0),
            span: 0,
            extra: Vec::new(),
        });
    }

    fn on_route_event(&mut self, now: SimTime, node: NodeId, dst: NodeId, kind: RouteEventKind) {
        self.registry.inc(match kind {
            RouteEventKind::DiscoveryStart => Counter::RouteDiscoveryStarts,
            RouteEventKind::DiscoveryRetry => Counter::RouteDiscoveryRetries,
            RouteEventKind::DiscoverySuccess => Counter::RouteDiscoverySuccesses,
            _ => Counter::RouteDiscoveryFailures,
        });
        self.tracer.record(TraceCategory::Route, || TraceRecord {
            event: route_event_name(kind),
            t_ns: now.as_nanos(),
            node: u64::from(node.0),
            span: u64::from(dst.0),
            extra: Vec::new(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observer_is_enabled() {
        // A compile-time check: the observer's hooks must actually fire.
        const { assert!(TelemetryObserver::ENABLED) }
    }

    #[test]
    fn latency_histogram_uses_origin_times() {
        let mut o = TelemetryObserver::with_config(TraceConfig::off());
        let node = NodeId(0);
        o.on_packet_originated(SimTime::from_nanos(100), node, 7);
        o.on_packet_delivered(SimTime::from_nanos(350), node, 7);
        let h = o.registry().histogram(HistogramId::DeliveryLatencyNs);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 250);
        // Delivery of an unknown uid (MAC duplicate) records nothing.
        o.on_packet_delivered(SimTime::from_nanos(400), node, 7);
        assert_eq!(
            o.registry()
                .histogram(HistogramId::DeliveryLatencyNs)
                .count(),
            1
        );
    }

    #[test]
    fn finish_reports_in_flight_packets() {
        let mut o = TelemetryObserver::with_config(TraceConfig::off());
        o.on_packet_originated(SimTime::from_nanos(1), NodeId(1), 1);
        o.on_packet_originated(SimTime::from_nanos(2), NodeId(2), 2);
        o.on_packet_dropped(SimTime::from_nanos(3), NodeId(2), 2, DropReason::NoRoute);
        o.finish();
        assert_eq!(o.registry().gauge(Gauge::PacketsInFlight), 1);
        assert_eq!(o.registry().counter(Counter::PacketsDropped), 1);
    }
}
