//! The per-layer cost ledger, measured from outside the engine.
//!
//! Every layer is timed only where the benchmark hands control to it: the
//! [`LayerClock`] observer charges each inter-dispatch interval to the
//! dispatched [`EventKind`], and the [`TimedRouting`], [`TimedApp`] and
//! [`TimedMobility`] wrappers time every call the engine makes into them.
//! Wrapper time is recorded as nested in the open event, so each event
//! kind's share is self time.
//!
//! The engine runs serially (`shards = 1`), so the ledger lives in a
//! thread-local: the wrappers, including the `Send + Sync` mobility one,
//! write to the ledger of the thread that drives the simulation.

use std::cell::RefCell;
use std::time::Instant;

use cavenet_core::net::{
    Application, EventKind, FrameDropReason, MobilityModel, NodeApi, NodeId, Packet, PositionEpoch,
    RouteEventKind, RoutingProtocol, RoutingTelemetry, SimObserver, SimTime,
};
use cavenet_core::net::{ControlCodec, WireError, WireReader, WireWriter};
use cavenet_core::Protocol;

/// Only every this-many-th mobility `position` call is timed; all are
/// counted. The jam ring makes ~10^7 position calls per trial, and timing
/// each would cost more than the calls themselves.
pub const POSITION_SAMPLE_STRIDE: u64 = 64;

/// The protocols of the routing ledger, in metric order.
pub const PROTOCOLS: [Protocol; 5] = [
    Protocol::Aodv,
    Protocol::Olsr,
    Protocol::Dymo,
    Protocol::Dsdv,
    Protocol::Flooding,
];

/// Routing entry points broken out in the ledger, in metric order.
pub const ROUTING_METHODS: [&str; 4] = [
    "handle_received",
    "handle_timer",
    "route_output",
    "tx_status",
];

/// Event kinds broken out in the ledger, in metric order (by
/// [`EventKind`] discriminant).
pub const EVENT_KINDS: [&str; 6] = [
    "rx_start",
    "rx_end",
    "tx_end",
    "mac_timer",
    "routing_timer",
    "app_timer",
];

/// A call count and the nanoseconds those calls took.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub n: u64,
    pub ns: u64,
}

impl Tally {
    const ZERO: Tally = Tally { n: 0, ns: 0 };

    fn add(&mut self, ns: u64) {
        self.n += 1;
        self.ns += ns;
    }

    fn merge(&mut self, other: Tally) {
        self.n += other.n;
        self.ns += other.ns;
    }
}

/// What the wrappers record while one simulation runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct WrapperTimes {
    /// Wall time spent inside any wrapper (mobility scaled from samples):
    /// the time [`LayerClock`] subtracts from the open event.
    pub nested_ns: u64,
    pub protocols: [Tally; 5],
    pub methods: [Tally; 4],
    pub app: Tally,
    pub position_calls: u64,
    /// The timed subset of `position_calls`.
    pub position_sampled: Tally,
}

impl WrapperTimes {
    const ZERO: WrapperTimes = WrapperTimes {
        nested_ns: 0,
        protocols: [Tally::ZERO; 5],
        methods: [Tally::ZERO; 4],
        app: Tally::ZERO,
        position_calls: 0,
        position_sampled: Tally::ZERO,
    };

    /// Estimated total wall time of all `position` calls.
    pub fn position_ns(&self) -> f64 {
        if self.position_sampled.n == 0 {
            0.0
        } else {
            self.position_sampled.ns as f64 * self.position_calls as f64
                / self.position_sampled.n as f64
        }
    }
}

thread_local! {
    static WRAPPERS: RefCell<WrapperTimes> = const { RefCell::new(WrapperTimes::ZERO) };
}

fn record(f: impl FnOnce(&mut WrapperTimes)) {
    WRAPPERS.with(|w| f(&mut w.borrow_mut()));
}

fn nested_ns() -> u64 {
    WRAPPERS.with(|w| w.borrow().nested_ns)
}

/// Clear this thread's wrapper ledger, returning what it held.
pub fn take_wrapper_times() -> WrapperTimes {
    WRAPPERS.with(|w| w.replace(WrapperTimes::ZERO))
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// A routing protocol whose every call is timed into the ledger.
pub struct TimedRouting {
    inner: Box<dyn RoutingProtocol>,
    protocol: usize,
}

impl TimedRouting {
    pub fn new(protocol: Protocol) -> Self {
        TimedRouting {
            inner: protocol.instantiate(),
            protocol: PROTOCOLS
                .iter()
                .position(|&p| p == protocol)
                .expect("benchmark protocols are in the ledger"),
        }
    }

    fn timed<R>(
        &mut self,
        method: Option<usize>,
        call: impl FnOnce(&mut dyn RoutingProtocol) -> R,
    ) -> R {
        let t0 = Instant::now();
        let out = call(self.inner.as_mut());
        let ns = elapsed_ns(t0);
        let protocol = self.protocol;
        record(|w| {
            w.nested_ns += ns;
            w.protocols[protocol].add(ns);
            if let Some(m) = method {
                w.methods[m].add(ns);
            }
        });
        out
    }
}

impl RoutingProtocol for TimedRouting {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn start(&mut self, api: &mut NodeApi<'_>) {
        self.timed(None, |r| r.start(api));
    }

    fn route_output(&mut self, api: &mut NodeApi<'_>, packet: Packet) {
        self.timed(Some(2), |r| r.route_output(api, packet));
    }

    fn handle_received(&mut self, api: &mut NodeApi<'_>, packet: Packet, from: NodeId) {
        self.timed(Some(0), |r| r.handle_received(api, packet, from));
    }

    fn handle_timer(&mut self, api: &mut NodeApi<'_>, token: u64) {
        self.timed(Some(1), |r| r.handle_timer(api, token));
    }

    fn tx_ok(&mut self, api: &mut NodeApi<'_>, packet: &Packet, next_hop: NodeId) {
        self.timed(Some(3), |r| r.tx_ok(api, packet, next_hop));
    }

    fn tx_failed(&mut self, api: &mut NodeApi<'_>, packet: Packet, next_hop: NodeId) {
        self.timed(Some(3), |r| r.tx_failed(api, packet, next_hop));
    }

    fn on_crash(&mut self, api: &mut NodeApi<'_>) {
        self.timed(None, |r| r.on_crash(api));
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }

    fn telemetry(&self) -> RoutingTelemetry {
        self.inner.telemetry()
    }

    fn capture_state(&self, w: &mut WireWriter) -> Result<(), WireError> {
        self.inner.capture_state(w)
    }

    fn restore_state(&mut self, r: &mut WireReader<'_>) -> Result<(), WireError> {
        self.inner.restore_state(r)
    }

    fn control_codec(&self) -> Option<Box<dyn ControlCodec>> {
        self.inner.control_codec()
    }
}

/// An application whose every call is timed into the ledger.
pub struct TimedApp(pub Box<dyn Application>);

impl TimedApp {
    fn timed<R>(&mut self, call: impl FnOnce(&mut dyn Application) -> R) -> R {
        let t0 = Instant::now();
        let out = call(self.0.as_mut());
        let ns = elapsed_ns(t0);
        record(|w| {
            w.nested_ns += ns;
            w.app.add(ns);
        });
        out
    }
}

impl Application for TimedApp {
    fn start(&mut self, api: &mut NodeApi<'_>) {
        self.timed(|a| a.start(api));
    }

    fn handle_timer(&mut self, api: &mut NodeApi<'_>, token: u64) {
        self.timed(|a| a.handle_timer(api, token));
    }

    fn handle_packet(&mut self, api: &mut NodeApi<'_>, packet: &Packet) {
        self.timed(|a| a.handle_packet(api, packet));
    }

    fn capture_state(&self, w: &mut WireWriter) -> Result<(), WireError> {
        self.0.capture_state(w)
    }

    fn restore_state(&mut self, r: &mut WireReader<'_>) -> Result<(), WireError> {
        self.0.restore_state(r)
    }
}

/// A mobility model whose `position` calls are counted, and sampled for
/// time every [`POSITION_SAMPLE_STRIDE`] calls.
pub struct TimedMobility<M>(pub M);

impl<M: MobilityModel> MobilityModel for TimedMobility<M> {
    fn position(&self, index: usize, t: SimTime) -> (f64, f64) {
        let mut calls = 0;
        record(|w| {
            w.position_calls += 1;
            calls = w.position_calls;
        });
        if calls % POSITION_SAMPLE_STRIDE != 0 {
            return self.0.position(index, t);
        }
        let t0 = Instant::now();
        let p = self.0.position(index, t);
        let ns = elapsed_ns(t0);
        record(|w| {
            w.nested_ns += ns * POSITION_SAMPLE_STRIDE;
            w.position_sampled.add(ns);
        });
        p
    }

    fn node_count(&self) -> usize {
        self.0.node_count()
    }

    fn epoch(&self, t: SimTime) -> PositionEpoch {
        self.0.epoch(t)
    }

    fn max_speed(&self) -> Option<f64> {
        self.0.max_speed()
    }
}

/// Self time and dispatch count of one event kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct KindTime {
    pub n: u64,
    /// Signed: sampled mobility time is subtracted as an estimate, so a
    /// single interval may go below zero; the sum over a run does not.
    pub self_ns: i64,
}

/// Engine observer that turns the dispatch stream into per-event-kind
/// self time and counts frames and route discoveries.
#[derive(Debug, Default)]
pub struct LayerClock {
    open: Option<(usize, Instant, u64)>,
    pub kinds: [KindTime; 7],
    pub frames_tx: u64,
    pub frames_rx: u64,
    pub dropped_collision: u64,
    pub dropped_below_threshold: u64,
    pub discovery_starts: u64,
    pub discovery_successes: u64,
}

impl LayerClock {
    fn switch(&mut self, next: Option<usize>) {
        let now = Instant::now();
        let nested = nested_ns();
        if let Some((kind, since, nested_at)) = self.open {
            let interval = now.duration_since(since).as_nanos() as i64;
            let k = &mut self.kinds[kind];
            k.n += 1;
            k.self_ns += interval - (nested - nested_at) as i64;
        }
        self.open = next.map(|kind| (kind, now, nested));
    }

    /// Charge the last open event up to now. Call when the engine returns
    /// from `run_until`, so work done between slices is not billed to it.
    pub fn close(&mut self) {
        self.switch(None);
    }
}

impl SimObserver for LayerClock {
    fn on_event_dispatched(&mut self, _now: SimTime, _seq: u64, _node: usize, kind: EventKind) {
        self.switch(Some(kind as usize));
    }

    fn on_frame_tx(&mut self, _now: SimTime, _node: usize, _frame: &cavenet_core::net::Frame) {
        self.frames_tx += 1;
    }

    fn on_frame_rx(&mut self, _now: SimTime, _node: usize, _frame: &cavenet_core::net::Frame) {
        self.frames_rx += 1;
    }

    fn on_frame_drop(&mut self, _now: SimTime, _node: usize, reason: FrameDropReason) {
        match reason {
            FrameDropReason::Collision => self.dropped_collision += 1,
            FrameDropReason::BelowThreshold => self.dropped_below_threshold += 1,
            _ => {}
        }
    }

    fn on_route_event(&mut self, _now: SimTime, _node: NodeId, _dst: NodeId, kind: RouteEventKind) {
        match kind {
            RouteEventKind::DiscoveryStart => self.discovery_starts += 1,
            RouteEventKind::DiscoverySuccess => self.discovery_successes += 1,
            _ => {}
        }
    }
}

/// Per-layer totals over every traced trial of a run.
#[derive(Debug, Default)]
pub struct Ledger {
    pub trials: u64,
    /// Wall time of the traced trials, checkpointing included.
    pub traced_ns: u64,
    /// The engine part of each traced trial (build, run, collect), paired
    /// with the same trial's untraced wall time.
    pub engine_ns: u64,
    pub untraced_ns: u64,
    pub trace_build_ns: u64,
    pub engine_build_ns: u64,
    pub collect_ns: u64,
    pub run_ns: u64,
    pub wrappers: WrapperTimes,
    pub clock: LayerClock,
    pub mac_retries: u64,
    pub mac_retry_drops: u64,
    pub mac_queue_drops: u64,
    pub mac_queue_hwm_max: u64,
    pub data_drops: u64,
    pub control_packets: u64,
    pub control_bytes: u64,
    pub sent: u64,
    pub received: u64,
    pub fluid_steps: u64,
    pub fluid_step_ns: u64,
    pub fluid_cells: u64,
    /// Shadow probe of the fluid kernels: sample, bin, integrate, BFS.
    pub fluid_probe_ns: [u64; 4],
    pub snapshots: u64,
    pub capture_ns: u64,
    pub encode_ns: u64,
    pub write_ns: u64,
    pub restore_ns: u64,
    pub snapshot_bytes: u64,
    pub dir_bytes: u64,
    pub batch_trials: u64,
    pub supervised_ns: u64,
    pub straight_ns: u64,
    pub unstreamed_ns: u64,
    pub digest_matches: u64,
    pub trial_retries: u64,
    pub watchdog_stalls: u64,
    pub trials_lost: u64,
    pub admission_sheds: u64,
    pub stream_snapshots: u64,
    pub feed_bytes: u64,
    pub stream_shed: u64,
}

impl Ledger {
    /// Fold one finished exact-engine simulation's clock and wrapper
    /// times into the totals.
    pub fn absorb_engine(&mut self, clock: &LayerClock, wrappers: &WrapperTimes) {
        let c = &mut self.clock;
        for (total, k) in c.kinds.iter_mut().zip(clock.kinds) {
            total.n += k.n;
            total.self_ns += k.self_ns;
        }
        c.frames_tx += clock.frames_tx;
        c.frames_rx += clock.frames_rx;
        c.dropped_collision += clock.dropped_collision;
        c.dropped_below_threshold += clock.dropped_below_threshold;
        c.discovery_starts += clock.discovery_starts;
        c.discovery_successes += clock.discovery_successes;
        let w = &mut self.wrappers;
        w.nested_ns += wrappers.nested_ns;
        for (total, t) in w.protocols.iter_mut().zip(wrappers.protocols) {
            total.merge(t);
        }
        for (total, t) in w.methods.iter_mut().zip(wrappers.methods) {
            total.merge(t);
        }
        w.app.merge(wrappers.app);
        w.position_calls += wrappers.position_calls;
        w.position_sampled.merge(wrappers.position_sampled);
    }
}
