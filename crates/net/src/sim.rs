//! The discrete-event engine and simulator assembly.

use std::collections::VecDeque;
use std::time::Duration;

use cavenet_rng::SimRng;

use crate::api::{ApiKind, NodeApi};
use crate::backend::{ChannelBackend, MacBackend};
use crate::calq::{EventQueue, Reception};
use crate::channel::Channel;
use crate::error::NetError;
use crate::fault::{FaultKind, FaultPlan, RecoveryMode};
use crate::grid::SpatialGrid;
use crate::mac::{Mac, MacHooks, MacStats, MacUpcall};
use crate::mobility::PositionEpoch;
use crate::node::{NodeStats, Radio, RxOutcome};
use crate::observer::{
    DropReason, EventKind, FrameDropReason, NoopObserver, RouteEventKind, SimObserver,
};
use crate::packet::Frame;
use crate::phy::LinkBudget;
use crate::snapshot::{
    read_time, write_time, ControlCodec, DataOnlyCodec, WireError, WireReader, WireWriter,
};
use crate::stats::DropCounts;
use crate::traits::{Application, NullApplication, NullRouting, RoutingProtocol};
use crate::{
    GlobalStats, MacParams, MobilityModel, NodeId, Packet, PhyParams, Propagation, SimTime,
};

/// Scenario-wide physical and MAC configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ScenarioConfig {
    /// Physical-layer parameters.
    pub phy: PhyParams,
    /// MAC-layer parameters.
    pub mac: MacParams,
    /// Propagation model.
    pub propagation: Propagation,
}

impl ScenarioConfig {
    /// Check the fields the engine divides by or doubles, so a bad value is
    /// refused at build instead of panicking in the middle of a run: bit
    /// rates (every airtime divides by them), the slot (a frozen backoff
    /// divides by it) and the contention-window bounds (a retry doubles the
    /// window as `(cw + 1) * 2 - 1`). The exact engine and the fluid engine
    /// both build through it.
    ///
    /// # Errors
    ///
    /// [`NetError::BadConfig`] naming the first offending field; no other
    /// variant.
    pub fn validate(&self) -> Result<(), NetError> {
        let rate_ok = |bps: f64| bps >= 1.0 && bps.is_finite();
        let cw_ok = |cw: u32| cw < u32::MAX / 2;
        let field = if !rate_ok(self.phy.data_rate_bps) {
            "phy.data_rate_bps"
        } else if !rate_ok(self.phy.basic_rate_bps) {
            "phy.basic_rate_bps"
        } else if self.mac.slot.is_zero() {
            "mac.slot"
        } else if !cw_ok(self.mac.cw_min) {
            "mac.cw_min"
        } else if !cw_ok(self.mac.cw_max) {
            "mac.cw_max"
        } else {
            return Ok(());
        };
        Err(NetError::BadConfig { field })
    }
}

/// A scheduled event. Node indices are `u32`, like [`NodeId`], so that the
/// tag and the node share the first word and an event is 24 bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Event {
    RxStart {
        node: u32,
        tx_id: u64,
        power: f64,
    },
    RxEnd {
        node: u32,
        tx_id: u64,
    },
    TxEnd {
        node: u32,
        tx_id: u64,
    },
    MacTimer {
        node: u32,
        seq: u64,
    },
    /// `epoch` is the node's routing-state generation at schedule time;
    /// timers from before a crash carry a stale epoch and are ignored.
    RoutingTimer {
        node: u32,
        token: u64,
        epoch: u64,
    },
    AppTimer {
        node: u32,
        token: u64,
    },
    Fault {
        node: u32,
        kind: FaultKind,
    },
}

impl Event {
    fn node(&self) -> usize {
        match *self {
            Event::RxStart { node, .. }
            | Event::RxEnd { node, .. }
            | Event::TxEnd { node, .. }
            | Event::MacTimer { node, .. }
            | Event::RoutingTimer { node, .. }
            | Event::AppTimer { node, .. }
            | Event::Fault { node, .. } => node as usize,
        }
    }

    fn kind(&self) -> EventKind {
        match self {
            Event::RxStart { .. } => EventKind::RxStart,
            Event::RxEnd { .. } => EventKind::RxEnd,
            Event::TxEnd { .. } => EventKind::TxEnd,
            Event::MacTimer { .. } => EventKind::MacTimer,
            Event::RoutingTimer { .. } => EventKind::RoutingTimer,
            Event::AppTimer { .. } => EventKind::AppTimer,
            Event::Fault { .. } => EventKind::Fault,
        }
    }
}

/// Deferred work generated by callbacks, applied in FIFO order.
#[derive(Debug)]
pub(crate) enum Pending {
    MacEnqueue {
        node: usize,
        packet: Packet,
        next_hop: NodeId,
    },
    RouteOutput {
        node: usize,
        packet: Packet,
    },
    HandleReceived {
        node: usize,
        packet: Packet,
        from: NodeId,
    },
    TxOk {
        node: usize,
        packet: Packet,
        next_hop: NodeId,
    },
    TxFailed {
        node: usize,
        packet: Packet,
        next_hop: NodeId,
    },
    AppDeliver {
        node: usize,
        packet: Packet,
    },
    PacketDrop {
        node: usize,
        packet: Packet,
        reason: DropReason,
    },
}

/// Mutable engine state shared with [`NodeApi`].
pub(crate) struct Kernel {
    pub(crate) now: SimTime,
    queue: EventQueue,
    seq: u64,
    pub(crate) rng: SimRng,
    pub(crate) pending: VecDeque<Pending>,
    pub(crate) mac_timers: Vec<(Duration, u64)>,
    pub(crate) mac_tx: Vec<Frame>,
    pub(crate) mac_upcalls: Vec<MacUpcall>,
    /// Spare buffers ping-ponged with the `mac_*` vecs by
    /// [`Simulator::after_mac`], so draining a MAC round never allocates:
    /// the drained vec becomes the next round's scratch and vice versa.
    scratch_timers: Vec<(Duration, u64)>,
    scratch_tx: Vec<Frame>,
    scratch_upcalls: Vec<MacUpcall>,
    next_uid: u64,
    pub(crate) node_count: usize,
    /// Per-node routing-state generation, bumped on every crash. Routing
    /// timers are stamped with the generation at schedule time; a mismatch
    /// at dispatch time means the timer belongs to a pre-crash life of the
    /// node and is dropped.
    routing_epoch: Vec<u64>,
    pub(crate) stats: GlobalStats,
    /// Terminal data-packet discards by reason, maintained unconditionally
    /// (plain counters never perturb the event stream).
    pub(crate) drops: DropCounts,
    /// Whether `schedule` records into `sched_log` (true iff the attached
    /// observer is enabled).
    pub(crate) record_sched: bool,
    /// Scheduled-event log, drained to the observer between dispatches.
    sched_log: Vec<(SimTime, u64, usize, EventKind)>,
    /// Route-discovery milestones reported by routing protocols through
    /// [`NodeApi::note_route_event`], drained to the observer alongside
    /// `sched_log`. Only filled while an enabled observer is attached.
    pub(crate) route_log: Vec<(SimTime, NodeId, NodeId, RouteEventKind)>,
}

impl Kernel {
    /// Assign `event`, due at `at`, the next sequence number, log it for
    /// the observer and queue it.
    fn schedule(&mut self, at: SimTime, event: Event) {
        self.seq += 1;
        if self.record_sched {
            self.sched_log
                .push((at, self.seq, event.node(), event.kind()));
        }
        self.queue.insert(at, self.seq, event);
    }

    /// Schedule a transmission's receptions as one table: `rows` in staging
    /// order, so receiver `m` takes the sequence numbers `2m + 1` (its
    /// `RxStart`) and `2m + 2` (its `RxEnd`) past the current one, exactly
    /// as scheduling each start and then its end one by one would, and is
    /// logged in that order. `rows` is left empty.
    fn schedule_receptions(
        &mut self,
        tx_id: u64,
        start: SimTime,
        end: SimTime,
        rows: &mut Vec<Reception>,
    ) {
        let base = self.seq;
        self.seq += 2 * rows.len() as u64;
        if self.record_sched {
            for r in rows.iter() {
                let seq = base + 2 * u64::from(r.m);
                let node = r.node as usize;
                let delay = Duration::from_nanos(r.delay_ns);
                self.sched_log
                    .push((start + delay, seq + 1, node, EventKind::RxStart));
                self.sched_log
                    .push((end + delay, seq + 2, node, EventKind::RxEnd));
            }
        }
        self.queue.insert_table(tx_id, start, end, base, rows);
    }

    pub(crate) fn schedule_layer_timer(
        &mut self,
        at: SimTime,
        node: usize,
        token: u64,
        kind: ApiKind,
    ) {
        let epoch = self.routing_epoch[node];
        let node = node as u32;
        let event = match kind {
            ApiKind::Routing => Event::RoutingTimer { node, token, epoch },
            ApiKind::App => Event::AppTimer { node, token },
        };
        self.schedule(at, event);
    }

    pub(crate) fn alloc_uid(&mut self) -> u64 {
        self.next_uid += 1;
        self.next_uid
    }
}

/// The simulator: a set of stations on a shared wireless channel, driven by
/// a deterministic discrete-event loop.
///
/// Build with [`Simulator::builder`]; see the crate-level example. An
/// engine observer may be attached via [`SimulatorBuilder::observer`]; the
/// default [`NoopObserver`] monomorphizes every hook away.
pub struct Simulator<O: SimObserver = NoopObserver> {
    kernel: Kernel,
    observer: O,
    /// Per-node state in struct-of-arrays layout: the broadcast and
    /// dispatch hot paths touch only the arrays they need (`radios` for
    /// medium state, `node_stats` for counters) instead of striding over a
    /// node struct that also carries boxed protocol state.
    macs: Vec<Mac>,
    radios: Vec<Radio>,
    node_stats: Vec<NodeStats>,
    routings: Vec<Option<Box<dyn RoutingProtocol>>>,
    apps: Vec<Option<Box<dyn Application>>>,
    channel: Channel,
    mobility: Box<dyn MobilityModel>,
    config: ScenarioConfig,
    /// The configured propagation model's received-power formula, with its
    /// distance-independent factors computed once.
    link: LinkBudget,
    started: bool,
    /// Neighbor grid over node positions; `None` when disabled or when the
    /// propagation model has no deterministic carrier-sense cutoff.
    grid: Option<SpatialGrid>,
    /// Carrier-sense radius used for grid queries (set iff `grid` is set).
    cs_cutoff: f64,
    /// The mobility model's displacement-rate bound
    /// ([`MobilityModel::max_speed`]), kept only when finite and
    /// non-negative.
    max_speed: Option<f64>,
    /// Sample instant the grid's cells were built from; `None` before the
    /// first build and after [`node_moved`](Simulator::node_moved) or a
    /// restore.
    grid_built_at: Option<SimTime>,
    /// Motion slack in metres tolerated before the grid is rebuilt; query
    /// radii are inflated by the drift bound up to this slack.
    grid_slack: f64,
    /// Reusable candidate buffer for broadcast scans.
    scratch: Vec<usize>,
    /// The candidates' positions, sampled in one bulk call per
    /// transmission (and every node's, when the grid is rebuilt).
    scratch_pos: Vec<(f64, f64)>,
    /// Reusable reception-table buffer, traded with the event queue for a
    /// drained table's on every transmission.
    rx_rows: Vec<Reception>,
    /// The validated fault schedule (empty by default — and provably
    /// zero-effect then: no events scheduled, no RNG drawn, no hooks fired).
    fault_plan: FaultPlan,
    /// Whether the plan defines any per-frame impairment; cached so the
    /// per-receiver hot path pays one branch when faults are off.
    impairments: bool,
    /// Dedicated RNG stream for impairment draws, decoupled from the main
    /// stream so fault sampling never perturbs backoff/shadowing sequences.
    fault_rng: SimRng,
    /// Liveness of each node (all `true` without a fault plan).
    node_up: Vec<bool>,
    /// Kept around to mint a fresh routing instance on a
    /// [`RecoveryMode::ColdStart`] recovery.
    routing_factory: Box<dyn Fn(usize) -> Box<dyn RoutingProtocol>>,
}

impl<O: SimObserver> std::fmt::Debug for Simulator<O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.kernel.now)
            .field("nodes", &self.macs.len())
            .finish_non_exhaustive()
    }
}

/// Configures and constructs a [`Simulator`].
pub struct SimulatorBuilder<O: SimObserver = NoopObserver> {
    config: ScenarioConfig,
    nodes: usize,
    seed: u64,
    mobility: Option<Box<dyn MobilityModel>>,
    routing_factory: Box<dyn Fn(usize) -> Box<dyn RoutingProtocol>>,
    apps: Vec<(usize, Box<dyn Application>)>,
    neighbor_grid: bool,
    fault_plan: FaultPlan,
    observer: O,
}

impl<O: SimObserver> std::fmt::Debug for SimulatorBuilder<O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimulatorBuilder")
            .field("nodes", &self.nodes)
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}

impl<O: SimObserver> SimulatorBuilder<O> {
    /// Attach an engine observer (see [`SimObserver`]). The observer type
    /// becomes part of the simulator's type; retrieve the observer after
    /// the run with [`Simulator::observer`] or [`Simulator::into_observer`].
    pub fn observer<P: SimObserver>(self, observer: P) -> SimulatorBuilder<P> {
        SimulatorBuilder {
            config: self.config,
            nodes: self.nodes,
            seed: self.seed,
            mobility: self.mobility,
            routing_factory: self.routing_factory,
            apps: self.apps,
            neighbor_grid: self.neighbor_grid,
            fault_plan: self.fault_plan,
            observer,
        }
    }

    /// Number of stations.
    pub fn nodes(mut self, n: usize) -> Self {
        self.nodes = n;
        self
    }

    /// Master random seed (drives backoff, shadowing, protocol jitter).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Position provider. Defaults to a 100 m grid if unset.
    pub fn mobility(mut self, m: Box<dyn MobilityModel>) -> Self {
        self.mobility = Some(m);
        self
    }

    /// Per-node routing protocol factory (defaults to
    /// [`NullRouting`]).
    pub fn routing_with<F>(mut self, factory: F) -> Self
    where
        F: Fn(usize) -> Box<dyn RoutingProtocol> + 'static,
    {
        self.routing_factory = Box::new(factory);
        self
    }

    /// Attach an application to one node.
    pub fn app(mut self, node: usize, app: Box<dyn Application>) -> Self {
        self.apps.push((node, app));
        self
    }

    /// Enable or disable the spatial neighbor grid (default: enabled).
    ///
    /// When enabled and the propagation model admits a deterministic
    /// carrier-sense cutoff (see [`PhyParams::carrier_sense_cutoff`]), each
    /// transmission scans only grid-adjacent stations instead of every
    /// station. The receiver set and the resulting event schedule are
    /// identical either way; this knob exists for benchmarking and as an
    /// escape hatch.
    pub fn neighbor_grid(mut self, enabled: bool) -> Self {
        self.neighbor_grid = enabled;
        self
    }

    /// Does nothing: the engine is serial. This once set the shard count
    /// of a sharded engine, removed because it never beat the serial one
    /// (DESIGN.md §14). It remains only because the repository benchmark
    /// package (`benchmarks/benchmark`) still calls it.
    pub fn shards(self, _n: usize) -> Self {
        self
    }

    /// Attach a fault schedule (see [`FaultPlan`]). The plan is validated
    /// by [`try_build`](Self::try_build); the default empty plan leaves the
    /// simulation provably undisturbed.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Construct the simulator.
    ///
    /// # Panics
    ///
    /// Panics on any condition [`try_build`](Self::try_build) reports as an
    /// error.
    pub fn build(self) -> Simulator<O> {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Construct the simulator, reporting configuration problems as typed
    /// errors instead of panicking.
    ///
    /// # Errors
    ///
    /// - [`NetError::BadConfig`] — `phy.data_rate_bps` or
    ///   `phy.basic_rate_bps` is below 1 b/s, infinite or NaN, `mac.slot`
    ///   is zero, or `mac.cw_min` or `mac.cw_max` exceeds `u32::MAX / 2 - 1`;
    /// - [`NetError::MobilityTooSmall`] — the mobility model covers fewer
    ///   nodes than configured;
    /// - [`NetError::UnknownNode`] — an application is attached to an
    ///   out-of-range node;
    /// - any [`FaultPlan::validate`] error for an invalid fault plan.
    pub fn try_build(self) -> Result<Simulator<O>, NetError> {
        self.config.validate()?;
        let mobility = self
            .mobility
            .unwrap_or_else(|| Box::new(crate::StaticMobility::grid(self.nodes, 100.0)));
        if mobility.node_count() < self.nodes {
            return Err(NetError::MobilityTooSmall {
                nodes: self.nodes,
                covered: mobility.node_count(),
            });
        }
        self.fault_plan.validate(self.nodes)?;
        let macs: Vec<Mac> = (0..self.nodes)
            .map(|i| Mac::new(NodeId(i as u32), self.config.mac.cw_min))
            .collect();
        let radios: Vec<Radio> = (0..self.nodes).map(|_| Radio::default()).collect();
        let node_stats = vec![NodeStats::default(); self.nodes];
        let routings: Vec<Option<Box<dyn RoutingProtocol>>> = (0..self.nodes)
            .map(|i| Some((self.routing_factory)(i)))
            .collect();
        let mut apps: Vec<Option<Box<dyn Application>>> = (0..self.nodes)
            .map(|_| Some(Box::new(NullApplication) as Box<dyn Application>))
            .collect();
        for (i, app) in self.apps {
            if i >= apps.len() {
                return Err(NetError::UnknownNode { node: i });
            }
            apps[i] = Some(app);
        }
        let cutoff = if self.neighbor_grid {
            // Through the backend seam: identical to calling the raw
            // `PhyParams` function (the exact backend delegates).
            ChannelBackend::carrier_sense_cutoff(&self.config)
        } else {
            None
        };
        let impairments = self.fault_plan.has_impairments();
        // A drift bound must be finite to inflate a query radius.
        let max_speed = mobility.max_speed().filter(|v| v.is_finite() && *v >= 0.0);
        Ok(Simulator {
            kernel: Kernel {
                now: SimTime::ZERO,
                queue: EventQueue::default(),
                seq: 0,
                rng: SimRng::seed_from_u64(self.seed),
                pending: VecDeque::new(),
                mac_timers: Vec::new(),
                mac_tx: Vec::new(),
                mac_upcalls: Vec::new(),
                scratch_timers: Vec::new(),
                scratch_tx: Vec::new(),
                scratch_upcalls: Vec::new(),
                next_uid: 0,
                node_count: self.nodes,
                routing_epoch: vec![0; self.nodes],
                stats: GlobalStats::default(),
                drops: DropCounts::default(),
                record_sched: O::ENABLED,
                sched_log: Vec::new(),
                route_log: Vec::new(),
            },
            observer: self.observer,
            macs,
            radios,
            node_stats,
            routings,
            apps,
            channel: Channel::new(),
            mobility,
            config: self.config,
            link: LinkBudget::new(&self.config.phy, self.config.propagation),
            started: false,
            grid: cutoff.map(SpatialGrid::new),
            cs_cutoff: cutoff.unwrap_or(0.0),
            max_speed,
            grid_built_at: None,
            // Half the carrier-sense radius: query areas grow at most
            // (1.5)² ≈ 2.25× before a rebuild amortizes the drift away.
            grid_slack: cutoff.unwrap_or(0.0) * 0.5,
            scratch: Vec::new(),
            scratch_pos: Vec::new(),
            rx_rows: Vec::new(),
            fault_plan: self.fault_plan,
            impairments,
            // A distinct, seed-derived stream: impairment draws must never
            // shift the main stream (or an empty plan would change backoff
            // and shadowing sequences).
            fault_rng: SimRng::seed_from_u64(self.seed ^ FAULT_RNG_SALT),
            node_up: vec![true; self.nodes],
            routing_factory: self.routing_factory,
        })
    }
}

/// XOR'd into the master seed to derive the fault stream; an arbitrary
/// constant fixed forever (it is part of the reproducibility contract).
const FAULT_RNG_SALT: u64 = 0x0fa1_7eed_5a17_ed01;

impl Simulator {
    /// Start building a simulator with the given configuration.
    pub fn builder(config: ScenarioConfig) -> SimulatorBuilder {
        SimulatorBuilder {
            config,
            nodes: 0,
            seed: 0,
            mobility: None,
            routing_factory: Box::new(|_| Box::new(NullRouting)),
            apps: Vec::new(),
            neighbor_grid: true,
            fault_plan: FaultPlan::default(),
            observer: NoopObserver,
        }
    }
}

impl<O: SimObserver> Simulator<O> {
    /// Shared access to the attached observer.
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Exclusive access to the attached observer — used by checkpointing
    /// to restore observer state alongside the engine sections.
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.observer
    }

    /// Consume the simulator, returning the observer and what it collected.
    pub fn into_observer(self) -> O {
        self.observer
    }

    /// Inspect node `i`'s routing protocol (for tests and tools; see
    /// [`RoutingProtocol::as_any`] for downcasting).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn routing(&self, i: usize) -> Option<&dyn RoutingProtocol> {
        self.routings[i].as_deref()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.now
    }

    /// Whether node `i` is currently alive (always `true` without a fault
    /// plan).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn node_up(&self, i: usize) -> bool {
        self.node_up[i]
    }

    /// The fault schedule this simulator was built with.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// Number of stations.
    pub fn node_count(&self) -> usize {
        self.macs.len()
    }

    /// Engine/channel counters.
    pub fn global_stats(&self) -> GlobalStats {
        self.kernel.stats
    }

    /// Simulation-wide data-packet discards broken down by
    /// [`DropReason`]. Maintained by the engine itself, so the breakdown is
    /// available with the default [`NoopObserver`] — no observer hooks or
    /// event replay required.
    pub fn drop_counts(&self) -> DropCounts {
        self.kernel.drops
    }

    /// Network-layer counters of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn node_stats(&self, i: usize) -> NodeStats {
        self.node_stats[i]
    }

    /// MAC counters of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn mac_stats(&self, i: usize) -> MacStats {
        *self.macs[i].stats()
    }

    /// Run the event loop until virtual time `t` (inclusive of events at
    /// `t`). The clock ends at exactly `t` even if the queue drains early.
    pub fn run_until(&mut self, t: SimTime) {
        self.ensure_started();
        self.flush_scheduled();
        while let Some((time, seq, event)) = self.kernel.queue.pop_until(t) {
            self.kernel.now = time;
            self.kernel.stats.events_processed += 1;
            if O::ENABLED {
                self.observer
                    .on_event_dispatched(time, seq, event.node(), event.kind());
            }
            self.dispatch(event);
            self.drain();
            self.flush_scheduled();
        }
        if self.kernel.now < t {
            self.kernel.now = t;
        }
    }

    /// [`run_until`](Self::run_until) with a float second count.
    pub fn run_until_secs(&mut self, secs: f64) {
        self.run_until(SimTime::from_secs_f64(secs));
    }

    /// Report events scheduled since the last flush to the observer.
    fn flush_scheduled(&mut self) {
        if O::ENABLED {
            for (at, seq, node, kind) in self.kernel.sched_log.drain(..) {
                self.observer.on_event_scheduled(at, seq, node, kind);
            }
            for (at, node, dst, kind) in self.kernel.route_log.drain(..) {
                self.observer.on_route_event(at, node, dst, kind);
            }
        }
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        // Fault events first, in plan order. With an empty plan this loop
        // does not run, so the event sequence numbering — and therefore
        // every golden digest — is identical to a build without the fault
        // layer.
        for i in 0..self.fault_plan.events.len() {
            let e = self.fault_plan.events[i];
            self.kernel.schedule(
                e.at,
                Event::Fault {
                    node: e.node as u32,
                    kind: e.kind,
                },
            );
        }
        for i in 0..self.macs.len() {
            self.routing_call(i, |r, api| r.start(api));
            self.app_call(i, |a, api| a.start(api));
            self.drain();
        }
    }

    fn dispatch(&mut self, event: Event) {
        let node = event.node();
        match event {
            Event::RxStart { tx_id, power, .. } => {
                if !self.node_up[node] {
                    // A powered-off radio records nothing; the matching
                    // RxEnd settles the channel refcount.
                    return;
                }
                let was_busy = self.radios[node].medium_busy();
                self.radios[node].on_rx_start(
                    tx_id,
                    power,
                    self.config.phy.rx_threshold_w,
                    self.config.phy.capture_ratio,
                );
                if !was_busy {
                    self.mac_call(node, |m, h| m.on_medium_busy(h));
                }
            }
            Event::RxEnd { tx_id, .. } => {
                if !self.node_up[node] {
                    // Still release the reference this reception held, or
                    // the channel would leak the transmission record.
                    self.channel.release(tx_id);
                    if O::ENABLED {
                        self.observer.on_frame_drop(
                            self.kernel.now,
                            node,
                            FrameDropReason::NodeDown,
                        );
                    }
                    return;
                }
                let outcome = self.radios[node].on_rx_end(tx_id);
                // Only a clean decode needs the frame payload; collided and
                // unheard signals settle with no copy at all.
                let frame = match outcome {
                    RxOutcome::Decoded => self.channel.get(tx_id).map(|t| t.frame.clone()),
                    _ => None,
                };
                self.channel.release(tx_id);
                match (outcome, frame) {
                    (RxOutcome::Decoded, Some(frame)) => {
                        self.kernel.stats.decoded += 1;
                        if O::ENABLED {
                            self.observer.on_frame_rx(self.kernel.now, node, &frame);
                        }
                        self.mac_call(node, |m, h| m.on_frame_received(h, frame));
                    }
                    (RxOutcome::Collided, _) => {
                        self.kernel.stats.collisions += 1;
                        if O::ENABLED {
                            self.observer.on_frame_drop(
                                self.kernel.now,
                                node,
                                FrameDropReason::Collision,
                            );
                        }
                    }
                    // A decode whose channel record is already gone settles
                    // like a signal that was never locked onto.
                    (RxOutcome::NotReceived, _) | (RxOutcome::Decoded, None) => {
                        if O::ENABLED {
                            self.observer.on_frame_drop(
                                self.kernel.now,
                                node,
                                FrameDropReason::BelowThreshold,
                            );
                        }
                    }
                }
                if !self.radios[node].medium_busy() {
                    self.mac_call(node, |m, h| m.on_medium_idle(h));
                }
            }
            Event::TxEnd { tx_id, .. } => {
                if !self.node_up[node] {
                    // The crash already reset the radio and flushed the MAC;
                    // only the channel bookkeeping remains.
                    self.channel.release(tx_id);
                    return;
                }
                self.radios[node].on_tx_end();
                self.channel.release(tx_id);
                self.mac_call(node, |m, h| m.on_tx_end(h));
                if !self.radios[node].medium_busy() {
                    self.mac_call(node, |m, h| m.on_medium_idle(h));
                }
            }
            Event::MacTimer { seq, .. } => {
                if !self.node_up[node] {
                    return;
                }
                self.mac_call(node, |m, h| m.on_timer(h, seq));
            }
            Event::RoutingTimer { token, epoch, .. } => {
                // Stale-epoch timers belong to a routing instance from
                // before the node's last crash and must not fire even after
                // recovery (a cold-started instance re-arms its own chains).
                if !self.node_up[node] || epoch != self.kernel.routing_epoch[node] {
                    return;
                }
                self.routing_call(node, |r, api| r.handle_timer(api, token));
            }
            Event::AppTimer { token, .. } => {
                // Application timer chains die while a node is down and are
                // not restarted on recovery — a crashed CBR source stays
                // silent, which is what a resilience experiment measures.
                if !self.node_up[node] {
                    return;
                }
                self.app_call(node, |a, api| a.handle_timer(api, token));
            }
            Event::Fault { kind, .. } => self.apply_fault(node, kind),
        }
    }

    /// Apply a scheduled crash or recovery to `node`.
    fn apply_fault(&mut self, node: usize, kind: FaultKind) {
        match kind {
            FaultKind::Crash => {
                self.node_up[node] = false;
                if O::ENABLED {
                    self.observer
                        .on_fault(self.kernel.now, NodeId(node as u32), kind);
                }
                // The routing layer surrenders any data it buffered (AODV
                // and DYMO hold packets awaiting route discovery)...
                self.routing_call(node, |r, api| r.on_crash(api));
                // ...then the MAC abandons its interface queue, returning
                // the packets it held so each gets a terminal NodeDown fate.
                let flushed = {
                    let mut hooks = MacHooks {
                        now: self.kernel.now,
                        rng: &mut self.kernel.rng,
                        timers: &mut self.kernel.mac_timers,
                        tx: &mut self.kernel.mac_tx,
                        upcalls: &mut self.kernel.mac_upcalls,
                        drops: &mut self.kernel.drops,
                        observer: &mut self.observer,
                        config: &self.config,
                    };
                    self.macs[node].crash_flush(&mut hooks)
                };
                self.after_mac(node);
                for packet in flushed {
                    if packet.is_data() {
                        self.node_stats[node].data_dropped += 1;
                    }
                    self.kernel.pending.push_back(Pending::PacketDrop {
                        node,
                        packet,
                        reason: DropReason::NodeDown,
                    });
                }
                self.radios[node].reset();
                self.kernel.routing_epoch[node] += 1;
            }
            FaultKind::Recover => {
                self.node_up[node] = true;
                if O::ENABLED {
                    self.observer
                        .on_fault(self.kernel.now, NodeId(node as u32), kind);
                }
                if self.fault_plan.recovery == RecoveryMode::ColdStart {
                    self.routings[node] = Some((self.routing_factory)(node));
                }
                // Either way the (fresh or preserved) instance re-arms its
                // timer chains; the pre-crash chains died with the epoch.
                self.routing_call(node, |r, api| r.start(api));
            }
        }
    }

    /// Apply queued follow-up work until quiescent.
    fn drain(&mut self) {
        while let Some(p) = self.kernel.pending.pop_front() {
            match p {
                Pending::MacEnqueue {
                    node,
                    mut packet,
                    next_hop,
                } => {
                    if packet.uid == 0 {
                        packet.uid = self.kernel.alloc_uid();
                    }
                    self.mac_call(node, |m, h| m.enqueue_packet(h, packet, next_hop));
                }
                Pending::RouteOutput { node, mut packet } => {
                    // Data packets get their unique id at origination so the
                    // whole life cycle (originate → deliver/drop) is
                    // observable under one uid.
                    if packet.uid == 0 {
                        packet.uid = self.kernel.alloc_uid();
                    }
                    if O::ENABLED && packet.is_data() {
                        self.observer.on_packet_originated(
                            self.kernel.now,
                            NodeId(node as u32),
                            packet.uid,
                        );
                    }
                    self.routing_call(node, |r, api| r.route_output(api, packet));
                }
                Pending::HandleReceived { node, packet, from } => {
                    self.routing_call(node, |r, api| r.handle_received(api, packet, from));
                }
                Pending::TxOk {
                    node,
                    packet,
                    next_hop,
                } => {
                    self.routing_call(node, |r, api| r.tx_ok(api, &packet, next_hop));
                }
                Pending::TxFailed {
                    node,
                    packet,
                    next_hop,
                } => {
                    self.routing_call(node, |r, api| r.tx_failed(api, packet, next_hop));
                }
                Pending::AppDeliver { node, packet } => {
                    if O::ENABLED && packet.is_data() {
                        self.observer.on_packet_delivered(
                            self.kernel.now,
                            NodeId(node as u32),
                            packet.uid,
                        );
                    }
                    self.app_call(node, |a, api| a.handle_packet(api, &packet));
                }
                Pending::PacketDrop {
                    node,
                    packet,
                    reason,
                } => {
                    if packet.is_data() {
                        self.kernel.drops.record(reason);
                        if O::ENABLED {
                            self.observer.on_packet_dropped(
                                self.kernel.now,
                                NodeId(node as u32),
                                packet.uid,
                                reason,
                            );
                        }
                    }
                }
            }
        }
    }

    fn mac_call(&mut self, idx: usize, f: impl FnOnce(&mut Mac, &mut MacHooks<'_, O>)) {
        {
            let mut hooks = MacHooks {
                now: self.kernel.now,
                rng: &mut self.kernel.rng,
                timers: &mut self.kernel.mac_timers,
                tx: &mut self.kernel.mac_tx,
                upcalls: &mut self.kernel.mac_upcalls,
                drops: &mut self.kernel.drops,
                observer: &mut self.observer,
                config: &self.config,
            };
            f(&mut self.macs[idx], &mut hooks);
        }
        self.after_mac(idx);
    }

    /// Apply everything the MAC asked for; loops because transmissions can
    /// trigger further MAC activity on the same node.
    fn after_mac(&mut self, idx: usize) {
        loop {
            if self.kernel.mac_timers.is_empty()
                && self.kernel.mac_tx.is_empty()
                && self.kernel.mac_upcalls.is_empty()
            {
                break;
            }
            // Swap each pending buffer with its spare instead of
            // drain().collect(): the drained vec becomes next round's spare,
            // so the loop allocates nothing in steady state. Callbacks fired
            // below may push fresh entries into the (now empty) `mac_*` vecs;
            // those are picked up by the next loop iteration, exactly as the
            // collect()-based version did.
            let mut timers = std::mem::take(&mut self.kernel.scratch_timers);
            std::mem::swap(&mut timers, &mut self.kernel.mac_timers);
            for (delay, seq) in timers.drain(..) {
                let at = self.kernel.now + delay;
                let node = idx as u32;
                self.kernel.schedule(at, Event::MacTimer { node, seq });
            }
            self.kernel.scratch_timers = timers;
            let mut frames = std::mem::take(&mut self.kernel.scratch_tx);
            std::mem::swap(&mut frames, &mut self.kernel.mac_tx);
            for frame in frames.drain(..) {
                self.start_transmission(idx, frame);
            }
            self.kernel.scratch_tx = frames;
            let mut upcalls = std::mem::take(&mut self.kernel.scratch_upcalls);
            std::mem::swap(&mut upcalls, &mut self.kernel.mac_upcalls);
            for up in upcalls.drain(..) {
                let pending = match up {
                    MacUpcall::Deliver { packet, from } => Pending::HandleReceived {
                        node: idx,
                        packet,
                        from,
                    },
                    MacUpcall::TxOk { packet, next_hop } => Pending::TxOk {
                        node: idx,
                        packet,
                        next_hop,
                    },
                    MacUpcall::TxFailed { packet, next_hop } => Pending::TxFailed {
                        node: idx,
                        packet,
                        next_hop,
                    },
                };
                self.kernel.pending.push_back(pending);
            }
            self.kernel.scratch_upcalls = upcalls;
        }
    }

    /// Tell the simulator that node positions changed outside what the
    /// mobility model declares (e.g. a mutable model was updated in place).
    /// Positions are sampled afresh at every transmission anyway; this
    /// rebuilds the neighbor grid before the next one, so a station that
    /// moved into range is found.
    pub fn node_moved(&mut self) {
        self.grid_built_at = None;
    }

    /// Collect into `cand`, in ascending order, every station that may
    /// sense a frame sent from `center`, with positions sampled at `at`:
    /// all stations without a grid, else the grid's candidates within the
    /// carrier-sense cutoff inflated by how far any node may have drifted
    /// since the cells were built. `drift_rate` bounds that drift per
    /// second; `None` means unbounded.
    ///
    /// The cells are rebuilt from every node's position at `at` when they
    /// were never built, were invalidated, or may have drifted beyond
    /// `grid_slack`: with an unbounded rate, at every new sample instant.
    /// The candidates stay a superset of the stations in carrier-sense
    /// range, and the caller checks each one's power at its exact position,
    /// so the event schedule is the full scan's — a grid exists only under
    /// deterministic propagation, where a below-cutoff extra candidate
    /// draws no RNG and schedules nothing (see DESIGN.md §13).
    fn candidates(
        &mut self,
        center: (f64, f64),
        at: SimTime,
        drift_rate: Option<f64>,
        cand: &mut Vec<usize>,
    ) {
        let n = self.kernel.node_count;
        let Some(grid) = &mut self.grid else {
            cand.extend(0..n);
            return;
        };
        let drift = match (self.grid_built_at, drift_rate) {
            (Some(built), Some(v)) => v * (built.as_nanos().abs_diff(at.as_nanos()) as f64 * 1e-9),
            (Some(built), None) if built == at => 0.0,
            _ => f64::INFINITY,
        };
        let drift = if drift > self.grid_slack {
            self.scratch_pos.clear();
            self.scratch_pos
                .extend((0..n).map(|i| self.mobility.position(i, at)));
            grid.rebuild(&self.scratch_pos);
            self.grid_built_at = Some(at);
            0.0
        } else {
            drift
        };
        grid.candidates_within(center, self.cs_cutoff + drift, cand);
    }

    /// Put a frame on the air from node `idx`: schedule its end at the
    /// sender and start/end of reception at every station in carrier-sense
    /// range.
    fn start_transmission(&mut self, idx: usize, frame: Frame) {
        let now = self.kernel.now;
        let duration = if frame.kind.is_control() {
            MacBackend::control_airtime(&self.config, frame.size_bytes)
        } else {
            MacBackend::data_airtime(&self.config, frame.size_bytes)
        };
        let end = now + duration;

        let was_busy = self.radios[idx].medium_busy();
        debug_assert!(
            !self.radios[idx].is_transmitting(),
            "node {idx} started a transmission while already transmitting"
        );
        self.radios[idx].on_tx_start();
        if !was_busy {
            // Make the MAC's busy flag consistent with its own transmission
            // (matters when an ACK goes out during a frozen backoff).
            let mut hooks = MacHooks {
                now,
                rng: &mut self.kernel.rng,
                timers: &mut self.kernel.mac_timers,
                tx: &mut self.kernel.mac_tx,
                upcalls: &mut self.kernel.mac_upcalls,
                drops: &mut self.kernel.drops,
                observer: &mut self.observer,
                config: &self.config,
            };
            self.macs[idx].on_medium_busy(&mut hooks);
        }

        // The sender and every candidate are sampled at one instant: the
        // epoch's start under `Step`, the transmission's own otherwise.
        let (at, drift_rate) = match self.mobility.epoch(now) {
            PositionEpoch::Static => (now, Some(0.0)),
            PositionEpoch::Continuous => (now, self.max_speed),
            PositionEpoch::Step { start, .. } => (start, self.max_speed),
        };
        let (sx, sy) = self.mobility.position(idx, at);
        if O::ENABLED {
            self.observer.on_frame_tx(now, idx, &frame);
        }
        let tx_id = self.channel.begin(NodeId(idx as u32), frame, now, end, 1);
        self.kernel.stats.transmissions += 1;

        // Candidates come back in ascending node order, so the (time, seq)
        // event schedule is identical to the full scan's: the grid only
        // skips stations whose received power is provably below the
        // carrier-sense threshold.
        let mut cand = std::mem::take(&mut self.scratch);
        cand.clear();
        self.candidates((sx, sy), at, drift_rate, &mut cand);
        self.mobility.positions_of(&cand, at, &mut self.scratch_pos);
        let mut rows = std::mem::take(&mut self.rx_rows);
        for (&j, &(x, y)) in cand.iter().zip(&self.scratch_pos) {
            if j == idx {
                continue;
            }
            // A crashed station's antenna is off: skipped before the power
            // draw, exactly like a station outside carrier-sense range.
            if !self.node_up[j] {
                continue;
            }
            let d = ((x - sx).powi(2) + (y - sy).powi(2)).sqrt();
            let power = self.link.rx_power(d, &mut self.kernel.rng);
            if power >= self.config.phy.cs_threshold_w {
                // Frame-level impairment (link loss, fading bursts) is
                // decided at the rx side, per receiver, from the dedicated
                // fault stream. A lost frame is a deep fade: the signal
                // never rises above the carrier-sense floor at `j`.
                if self.impairments {
                    let loss = self.fault_plan.loss_at(j, now);
                    if loss > 0.0 && self.fault_rng.gen_bool(loss) {
                        continue;
                    }
                }
                let delay = ChannelBackend::propagation_delay(&self.config, d);
                rows.push(Reception {
                    delay_ns: u64::try_from(delay.as_nanos()).expect("SimTime overflow"),
                    m: rows.len() as u32,
                    node: j as u32,
                    power,
                });
            }
        }
        self.scratch = cand;
        self.channel.retain(tx_id, rows.len() as u32);
        self.kernel.schedule_receptions(tx_id, now, end, &mut rows);
        self.rx_rows = rows;
        let node = idx as u32;
        self.kernel.schedule(end, Event::TxEnd { node, tx_id });
    }

    fn routing_call(
        &mut self,
        idx: usize,
        f: impl FnOnce(&mut dyn RoutingProtocol, &mut NodeApi<'_>),
    ) {
        let Some(mut proto) = self.routings[idx].take() else {
            return;
        };
        {
            let mut api = NodeApi {
                kernel: &mut self.kernel,
                stats: &mut self.node_stats[idx],
                index: idx,
                kind: ApiKind::Routing,
            };
            f(proto.as_mut(), &mut api);
        }
        self.routings[idx] = Some(proto);
    }

    fn app_call(&mut self, idx: usize, f: impl FnOnce(&mut dyn Application, &mut NodeApi<'_>)) {
        let Some(mut app) = self.apps[idx].take() else {
            return;
        };
        {
            let mut api = NodeApi {
                kernel: &mut self.kernel,
                stats: &mut self.node_stats[idx],
                index: idx,
                kind: ApiKind::App,
            };
            f(app.as_mut(), &mut api);
        }
        self.apps[idx] = Some(app);
    }
}

/// Event-queue entry tags used by the engine snapshot section. Fixed
/// forever: they are part of the on-disk checkpoint format.
mod event_tag {
    pub(super) const RX_START: u8 = 0;
    pub(super) const RX_END: u8 = 1;
    pub(super) const TX_END: u8 = 2;
    pub(super) const MAC_TIMER: u8 = 3;
    pub(super) const ROUTING_TIMER: u8 = 4;
    pub(super) const APP_TIMER: u8 = 5;
    pub(super) const FAULT: u8 = 6;
}

/// Snapshot capture and restore.
///
/// The simulator's dynamic state is split into five independent sections
/// (engine, channel, link, routing, apps); `cavenet-checkpoint` frames them
/// into a versioned container. Capture is only legal at a *quiescent point*
/// — after [`run_until`](Simulator::run_until) has returned — when all
/// deferred work is drained and only the event queue carries future state.
///
/// Restore happens into a **factory-fresh simulator built from the same
/// scenario** (same node count, config, mobility, fault plan, routing
/// factory, apps and seed): configuration and closures are never
/// serialized, only dynamic state is overwritten. After restoring every
/// section the simulator continues bit-identically to the captured one.
impl<O: SimObserver> Simulator<O> {
    /// The codec able to serialize this scenario's in-flight routing
    /// control payloads: the first codec any node's protocol offers, or
    /// [`DataOnlyCodec`] when no protocol sends control traffic.
    pub fn control_codec(&self) -> Box<dyn ControlCodec> {
        self.routings
            .iter()
            .find_map(|r| r.as_ref().and_then(|r| r.control_codec()))
            .unwrap_or_else(|| Box::new(DataOnlyCodec))
    }

    /// Serialize the engine section: clock, sequence counters, both RNG
    /// streams, liveness, global counters, and the future event queue in
    /// `(time, seq)` order.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] if called at a non-quiescent point
    /// (deferred callback work still buffered).
    pub fn capture_engine(&self, w: &mut WireWriter) -> Result<(), WireError> {
        let k = &self.kernel;
        let buffered = k.pending.len() + k.mac_timers.len() + k.mac_tx.len() + k.mac_upcalls.len();
        if buffered != 0 {
            return Err(WireError::Malformed {
                what: "capture at non-quiescent point",
                value: buffered as u64,
            });
        }
        w.put_bool(self.started);
        write_time(w, k.now);
        w.put_u64(k.seq);
        w.put_u64(k.rng.state());
        w.put_u64(self.fault_rng.state());
        w.put_u64(k.next_uid);
        w.put_usize(k.node_count);
        for &e in &k.routing_epoch {
            w.put_u64(e);
        }
        for &up in &self.node_up {
            w.put_bool(up);
        }
        let s = &k.stats;
        for v in [
            s.transmissions,
            s.decoded,
            s.collisions,
            s.rx_while_tx,
            s.events_processed,
        ] {
            w.put_u64(v);
        }
        for &v in k.drops.raw() {
            w.put_u64(v);
        }
        let entries = k.queue.sorted_entries();
        w.put_usize(entries.len());
        for (time, seq, event) in entries {
            write_time(w, time);
            w.put_u64(seq);
            match event {
                Event::RxStart { node, tx_id, power } => {
                    w.put_u8(event_tag::RX_START);
                    w.put_usize(node as usize);
                    w.put_u64(tx_id);
                    w.put_f64(power);
                }
                Event::RxEnd { node, tx_id } => {
                    w.put_u8(event_tag::RX_END);
                    w.put_usize(node as usize);
                    w.put_u64(tx_id);
                }
                Event::TxEnd { node, tx_id } => {
                    w.put_u8(event_tag::TX_END);
                    w.put_usize(node as usize);
                    w.put_u64(tx_id);
                }
                Event::MacTimer { node, seq } => {
                    w.put_u8(event_tag::MAC_TIMER);
                    w.put_usize(node as usize);
                    w.put_u64(seq);
                }
                Event::RoutingTimer { node, token, epoch } => {
                    w.put_u8(event_tag::ROUTING_TIMER);
                    w.put_usize(node as usize);
                    w.put_u64(token);
                    w.put_u64(epoch);
                }
                Event::AppTimer { node, token } => {
                    w.put_u8(event_tag::APP_TIMER);
                    w.put_usize(node as usize);
                    w.put_u64(token);
                }
                Event::Fault { node, kind } => {
                    w.put_u8(event_tag::FAULT);
                    w.put_usize(node as usize);
                    w.put_u8(match kind {
                        FaultKind::Crash => 0,
                        FaultKind::Recover => 1,
                    });
                }
            }
        }
        Ok(())
    }

    /// Rebuild the engine section from a
    /// [`capture_engine`](Self::capture_engine) stream.
    ///
    /// # Errors
    ///
    /// [`WireError`] on a truncated stream, an unknown event tag, a node
    /// index out of range, or a node-count mismatch with this scenario.
    pub fn restore_engine(&mut self, r: &mut WireReader<'_>) -> Result<(), WireError> {
        self.started = r.get_bool()?;
        self.kernel.now = read_time(r)?;
        self.kernel.seq = r.get_u64()?;
        self.kernel.rng = SimRng::from_state(r.get_u64()?);
        self.fault_rng = SimRng::from_state(r.get_u64()?);
        self.kernel.next_uid = r.get_u64()?;
        let count = r.get_usize()?;
        if count != self.kernel.node_count {
            return Err(WireError::Malformed {
                what: "snapshot node count",
                value: count as u64,
            });
        }
        for e in self.kernel.routing_epoch.iter_mut() {
            *e = r.get_u64()?;
        }
        for up in self.node_up.iter_mut() {
            *up = r.get_bool()?;
        }
        let s = &mut self.kernel.stats;
        s.transmissions = r.get_u64()?;
        s.decoded = r.get_u64()?;
        s.collisions = r.get_u64()?;
        s.rx_while_tx = r.get_u64()?;
        s.events_processed = r.get_u64()?;
        let mut drops = [0u64; DropCounts::REASONS];
        for d in drops.iter_mut() {
            *d = r.get_u64()?;
        }
        self.kernel.drops.set_raw(drops);
        // `n` is untrusted snapshot input and sizes nothing: an over-long
        // count fails as `Truncated` inside the loop.
        let n = r.get_usize()?;
        let mut queue = EventQueue::default();
        for _ in 0..n {
            let time = read_time(r)?;
            let seq = r.get_u64()?;
            let tag = r.get_u8()?;
            let node = r.get_usize()?;
            if node >= count {
                return Err(WireError::Malformed {
                    what: "event node index",
                    value: node as u64,
                });
            }
            let node = node as u32;
            let event = match tag {
                event_tag::RX_START => Event::RxStart {
                    node,
                    tx_id: r.get_u64()?,
                    power: r.get_f64()?,
                },
                event_tag::RX_END => Event::RxEnd {
                    node,
                    tx_id: r.get_u64()?,
                },
                event_tag::TX_END => Event::TxEnd {
                    node,
                    tx_id: r.get_u64()?,
                },
                event_tag::MAC_TIMER => Event::MacTimer {
                    node,
                    seq: r.get_u64()?,
                },
                event_tag::ROUTING_TIMER => Event::RoutingTimer {
                    node,
                    token: r.get_u64()?,
                    epoch: r.get_u64()?,
                },
                event_tag::APP_TIMER => Event::AppTimer {
                    node,
                    token: r.get_u64()?,
                },
                event_tag::FAULT => Event::Fault {
                    node,
                    kind: match r.get_u8()? {
                        0 => FaultKind::Crash,
                        1 => FaultKind::Recover,
                        v => {
                            return Err(WireError::Malformed {
                                what: "fault kind tag",
                                value: u64::from(v),
                            })
                        }
                    },
                },
                v => {
                    return Err(WireError::Malformed {
                        what: "event tag",
                        value: u64::from(v),
                    })
                }
            };
            queue.insert(time, seq, event);
        }
        self.kernel.queue = queue;
        // The neighbor grid is derived state: force a rebuild at the next
        // transmission. Observer logs restart empty — the snapshot carries
        // simulation state, not telemetry backlog.
        self.grid_built_at = None;
        self.kernel.sched_log.clear();
        self.kernel.route_log.clear();
        Ok(())
    }

    /// Serialize the channel section: every in-flight transmission with its
    /// exact id and reference count.
    ///
    /// # Errors
    ///
    /// [`WireError`] if an in-flight control payload cannot be serialized
    /// by `codec`.
    pub fn capture_channel(
        &self,
        w: &mut WireWriter,
        codec: &dyn ControlCodec,
    ) -> Result<(), WireError> {
        self.channel.capture(w, codec)
    }

    /// Rebuild the channel section.
    ///
    /// # Errors
    ///
    /// [`WireError`] on a truncated or malformed stream.
    pub fn restore_channel(
        &mut self,
        r: &mut WireReader<'_>,
        codec: &dyn ControlCodec,
    ) -> Result<(), WireError> {
        self.channel.restore(r, codec)
    }

    /// Serialize the link section: per node, the complete MAC state
    /// machine, the receiver radio state, and the network-layer counters.
    ///
    /// # Errors
    ///
    /// [`WireError`] if a queued control payload cannot be serialized by
    /// `codec`.
    pub fn capture_link(
        &self,
        w: &mut WireWriter,
        codec: &dyn ControlCodec,
    ) -> Result<(), WireError> {
        w.put_usize(self.macs.len());
        for i in 0..self.macs.len() {
            self.macs[i].capture(w, codec)?;
            self.radios[i].capture(w);
            let s = &self.node_stats[i];
            for v in [
                s.control_sent,
                s.control_bytes_sent,
                s.data_originated,
                s.data_forwarded,
                s.data_delivered,
                s.data_dropped,
            ] {
                w.put_u64(v);
            }
        }
        Ok(())
    }

    /// Rebuild the link section.
    ///
    /// # Errors
    ///
    /// [`WireError`] on a truncated/malformed stream or a node-count
    /// mismatch.
    pub fn restore_link(
        &mut self,
        r: &mut WireReader<'_>,
        codec: &dyn ControlCodec,
    ) -> Result<(), WireError> {
        let n = r.get_usize()?;
        if n != self.macs.len() {
            return Err(WireError::Malformed {
                what: "link section node count",
                value: n as u64,
            });
        }
        for i in 0..self.macs.len() {
            self.macs[i].restore(r, codec)?;
            self.radios[i].restore(r)?;
            let s = &mut self.node_stats[i];
            s.control_sent = r.get_u64()?;
            s.control_bytes_sent = r.get_u64()?;
            s.data_originated = r.get_u64()?;
            s.data_forwarded = r.get_u64()?;
            s.data_delivered = r.get_u64()?;
            s.data_dropped = r.get_u64()?;
        }
        Ok(())
    }

    /// Serialize the routing section: per node, the protocol name and the
    /// protocol's own state blob (see [`RoutingProtocol::capture_state`]),
    /// length-prefixed so each node's stream is isolated.
    ///
    /// # Errors
    ///
    /// [`WireError`] if a protocol fails to serialize its state.
    pub fn capture_routing(&self, w: &mut WireWriter) -> Result<(), WireError> {
        w.put_usize(self.routings.len());
        for routing in &self.routings {
            match routing {
                None => w.put_bool(false),
                Some(proto) => {
                    w.put_bool(true);
                    w.put_str(proto.name());
                    let mut sub = WireWriter::new();
                    proto.capture_state(&mut sub)?;
                    w.put_bytes(&sub.into_bytes());
                }
            }
        }
        Ok(())
    }

    /// Rebuild the routing section into this simulator's factory-fresh
    /// protocol instances.
    ///
    /// # Errors
    ///
    /// [`WireError`] on stream corruption, a node-count or protocol-name
    /// mismatch, or a per-node blob with trailing bytes.
    pub fn restore_routing(&mut self, r: &mut WireReader<'_>) -> Result<(), WireError> {
        let n = r.get_usize()?;
        if n != self.routings.len() {
            return Err(WireError::Malformed {
                what: "routing section node count",
                value: n as u64,
            });
        }
        for routing in &mut self.routings {
            let present = r.get_bool()?;
            if present != routing.is_some() {
                return Err(WireError::Malformed {
                    what: "routing instance presence",
                    value: u64::from(present),
                });
            }
            let Some(proto) = routing else {
                continue;
            };
            let name = r.get_str()?;
            if name != proto.name() {
                return Err(WireError::Malformed {
                    what: "routing protocol name",
                    value: name.len() as u64,
                });
            }
            let blob = r.get_bytes()?;
            let mut sub = WireReader::new(blob);
            proto.restore_state(&mut sub)?;
            sub.finish()?;
        }
        Ok(())
    }

    /// Serialize the application section: per node, the application's own
    /// state blob (see [`Application::capture_state`]), length-prefixed.
    ///
    /// # Errors
    ///
    /// [`WireError`] if an application fails to serialize its state.
    pub fn capture_apps(&self, w: &mut WireWriter) -> Result<(), WireError> {
        w.put_usize(self.apps.len());
        for app in &self.apps {
            match app {
                None => w.put_bool(false),
                Some(app) => {
                    w.put_bool(true);
                    let mut sub = WireWriter::new();
                    app.capture_state(&mut sub)?;
                    w.put_bytes(&sub.into_bytes());
                }
            }
        }
        Ok(())
    }

    /// Rebuild the application section into this simulator's freshly built
    /// applications.
    ///
    /// # Errors
    ///
    /// [`WireError`] on stream corruption, a node-count or presence
    /// mismatch, or a per-node blob with trailing bytes.
    pub fn restore_apps(&mut self, r: &mut WireReader<'_>) -> Result<(), WireError> {
        let n = r.get_usize()?;
        if n != self.apps.len() {
            return Err(WireError::Malformed {
                what: "app section node count",
                value: n as u64,
            });
        }
        for app in &mut self.apps {
            let present = r.get_bool()?;
            if present != app.is_some() {
                return Err(WireError::Malformed {
                    what: "app instance presence",
                    value: u64::from(present),
                });
            }
            let Some(app) = app else {
                continue;
            };
            let blob = r.get_bytes()?;
            let mut sub = WireReader::new(blob);
            app.restore_state(&mut sub)?;
            sub.finish()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlowId, StaticMobility};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// App that sends `count` packets to `dst` at 10 ms spacing and records
    /// received sequence numbers.
    struct TestApp {
        dst: NodeId,
        count: u32,
        sent: u32,
        received: Rc<RefCell<Vec<u32>>>,
    }

    impl Application for TestApp {
        fn start(&mut self, api: &mut NodeApi<'_>) {
            if self.count > 0 {
                api.schedule(Duration::from_millis(10), 0);
            }
        }

        fn handle_timer(&mut self, api: &mut NodeApi<'_>, _token: u64) {
            let flow = FlowId::new(api.id(), self.dst, 0);
            let p = Packet::data(flow, self.sent, 512, api.now());
            api.originate(p);
            self.sent += 1;
            if self.sent < self.count {
                api.schedule(Duration::from_millis(10), 0);
            }
        }

        fn handle_packet(&mut self, _api: &mut NodeApi<'_>, packet: &Packet) {
            if let Some(d) = packet.body.as_data() {
                self.received.borrow_mut().push(d.seq);
            }
        }

        fn capture_state(&self, w: &mut WireWriter) -> Result<(), WireError> {
            w.put_u32(self.sent);
            Ok(())
        }

        fn restore_state(&mut self, r: &mut WireReader<'_>) -> Result<(), WireError> {
            self.sent = r.get_u32()?;
            Ok(())
        }
    }

    fn two_node_sim(distance: f64, seed: u64) -> (Simulator, Rc<RefCell<Vec<u32>>>) {
        let received = Rc::new(RefCell::new(Vec::new()));
        let sim = Simulator::builder(ScenarioConfig::default())
            .nodes(2)
            .seed(seed)
            .mobility(Box::new(StaticMobility::line(2, distance)))
            .app(
                0,
                Box::new(TestApp {
                    dst: NodeId(1),
                    count: 5,
                    sent: 0,
                    received: Rc::new(RefCell::new(Vec::new())),
                }),
            )
            .app(
                1,
                Box::new(TestApp {
                    dst: NodeId(0),
                    count: 0,
                    sent: 0,
                    received: Rc::clone(&received),
                }),
            )
            .build();
        (sim, received)
    }

    #[test]
    fn packets_delivered_within_range() {
        let (mut sim, received) = two_node_sim(200.0, 1);
        sim.run_until_secs(1.0);
        assert_eq!(*received.borrow(), vec![0, 1, 2, 3, 4]);
        let s = sim.node_stats(0);
        assert_eq!(s.data_originated, 5);
        assert_eq!(sim.node_stats(1).data_delivered, 5);
        assert!(sim.mac_stats(0).ack_rx >= 5);
    }

    #[test]
    fn no_delivery_beyond_range() {
        let (mut sim, received) = two_node_sim(300.0, 1);
        sim.run_until_secs(1.0);
        assert!(
            received.borrow().is_empty(),
            "250 m range must not reach 300 m"
        );
        // The sender exhausted retries on every packet.
        assert!(sim.mac_stats(0).retry_drops > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let (mut a, ra) = two_node_sim(200.0, 99);
        let (mut b, rb) = two_node_sim(200.0, 99);
        a.run_until_secs(1.0);
        b.run_until_secs(1.0);
        assert_eq!(*ra.borrow(), *rb.borrow());
        assert_eq!(a.global_stats(), b.global_stats());
        assert_eq!(a.mac_stats(0), b.mac_stats(0));
    }

    #[test]
    fn clock_advances_to_target_even_when_idle() {
        let mut sim = Simulator::builder(ScenarioConfig::default())
            .nodes(1)
            .build();
        sim.run_until_secs(5.0);
        assert_eq!(sim.now(), SimTime::from_secs(5));
    }

    /// Broadcasts one 64-byte data packet 1 ms after start.
    struct Bcast {
        sent: bool,
    }

    impl Application for Bcast {
        fn start(&mut self, api: &mut NodeApi<'_>) {
            api.schedule(Duration::from_millis(1), 0);
        }
        fn handle_timer(&mut self, api: &mut NodeApi<'_>, _t: u64) {
            if !self.sent {
                self.sent = true;
                let flow = FlowId::new(api.id(), NodeId::BROADCAST, 0);
                api.originate(Packet::data(flow, 0, 64, api.now()));
            }
        }
    }

    #[test]
    fn broadcast_reaches_all_neighbours() {
        // 3 nodes, 100 m apart in a line — all within range of node 1.
        let mut sim = Simulator::builder(ScenarioConfig::default())
            .nodes(3)
            .mobility(Box::new(StaticMobility::line(3, 100.0)))
            .app(1, Box::new(Bcast { sent: false }))
            .build();
        sim.run_until_secs(1.0);
        assert_eq!(sim.node_stats(0).data_delivered, 1);
        assert_eq!(sim.node_stats(2).data_delivered, 1);
        assert_eq!(sim.mac_stats(1).broadcast_tx, 1);
    }

    #[test]
    fn hidden_terminal_causes_collisions() {
        // Nodes 0 and 2 cannot hear each other (1100 m apart) but both reach
        // node 1 (550 m each — inside 250 m? no). Use 200 m spacing variant:
        // 0 at x=0, 1 at x=200, 2 at x=400: 0↔2 are 400 m apart — outside
        // carrier sense? CS range is 550 m, so they *do* sense each other.
        // Go wider: 0 at 0, 1 at 240, 2 at 480 — 0↔2 at 480 m < 550 m still
        // sensed. True hidden terminals need > 550 m separation with both
        // reaching the middle (< 250 m each) — impossible on a line. Instead
        // verify that concurrent senders produce some collisions at a
        // middle receiver under saturation with CS disabled by distance:
        // keep the classic 3-in-range case and just assert traffic flows.
        let received = Rc::new(RefCell::new(Vec::new()));
        let mk_app = |dst, count, rx: &Rc<RefCell<Vec<u32>>>| TestApp {
            dst,
            count,
            sent: 0,
            received: Rc::clone(rx),
        };
        let mut sim = Simulator::builder(ScenarioConfig::default())
            .nodes(3)
            .mobility(Box::new(StaticMobility::line(3, 240.0)))
            .app(
                0,
                Box::new(mk_app(NodeId(1), 50, &Rc::new(RefCell::new(Vec::new())))),
            )
            .app(
                2,
                Box::new(mk_app(NodeId(1), 50, &Rc::new(RefCell::new(Vec::new())))),
            )
            .app(1, Box::new(mk_app(NodeId(0), 0, &received)))
            .build();
        sim.run_until_secs(2.0);
        // Both senders' packets arrive at node 1 despite contention.
        assert!(sim.node_stats(1).data_delivered >= 90);
    }

    #[test]
    fn null_routing_does_not_forward() {
        // 0 → 2 at 2 hops: null routing sends straight to dst, which is out
        // of range, so nothing arrives.
        let received = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::builder(ScenarioConfig::default())
            .nodes(3)
            .mobility(Box::new(StaticMobility::line(3, 240.0)))
            .app(
                0,
                Box::new(TestApp {
                    dst: NodeId(2),
                    count: 3,
                    sent: 0,
                    received: Rc::new(RefCell::new(Vec::new())),
                }),
            )
            .app(
                2,
                Box::new(TestApp {
                    dst: NodeId(0),
                    count: 0,
                    sent: 0,
                    received: Rc::clone(&received),
                }),
            )
            .build();
        sim.run_until_secs(1.0);
        assert!(received.borrow().is_empty());
    }

    #[test]
    fn events_processed_counter_advances() {
        let (mut sim, _) = two_node_sim(100.0, 3);
        sim.run_until_secs(0.5);
        assert!(sim.global_stats().events_processed > 10);
        assert!(sim.global_stats().transmissions >= 5);
        assert!(sim.global_stats().decoded >= 5);
    }

    /// Build a 30-node ring under contention and return its stats fingerprint.
    fn ring_fingerprint(neighbor_grid: bool) -> (GlobalStats, Vec<(NodeStats, MacStats)>) {
        let mut builder = Simulator::builder(ScenarioConfig::default())
            .nodes(30)
            .seed(7)
            .mobility(Box::new(StaticMobility::ring(30, 3000.0)))
            .neighbor_grid(neighbor_grid);
        for sender in [0usize, 7, 14, 21] {
            builder = builder.app(
                sender,
                Box::new(TestApp {
                    dst: NodeId((sender as u32 + 1) % 30),
                    count: 20,
                    sent: 0,
                    received: Rc::new(RefCell::new(Vec::new())),
                }),
            );
        }
        let mut sim = builder.build();
        sim.run_until_secs(2.0);
        let per_node = (0..30)
            .map(|i| (sim.node_stats(i), sim.mac_stats(i)))
            .collect();
        (sim.global_stats(), per_node)
    }

    #[test]
    fn grid_scan_matches_full_scan_exactly() {
        let (ga, na) = ring_fingerprint(true);
        let (gb, nb) = ring_fingerprint(false);
        assert_eq!(ga, gb, "global stats diverged between grid and full scan");
        assert_eq!(na, nb, "per-node stats diverged between grid and full scan");
        assert!(ga.transmissions > 80, "scenario should carry real traffic");
    }

    /// Bounded-speed continuous mobility: nodes orbit a ring at constant
    /// angular velocity, so the grid is reused while its nodes drift.
    struct Orbit {
        n: usize,
        circumference: f64,
        speed: f64,
    }
    impl crate::MobilityModel for Orbit {
        fn position(&self, index: usize, t: SimTime) -> (f64, f64) {
            let r = self.circumference / std::f64::consts::TAU;
            let theta = index as f64 / self.n as f64 * std::f64::consts::TAU
                + self.speed / r * t.as_secs_f64();
            (r + r * theta.cos(), r + r * theta.sin())
        }
        fn node_count(&self) -> usize {
            self.n
        }
        fn max_speed(&self) -> Option<f64> {
            Some(self.speed)
        }
    }

    /// Moving + faulted fingerprint: with the grid, cells reused while their
    /// nodes drift and drift-inflated queries, plus impairment draws from
    /// the fault RNG — the two most order-sensitive receiver-loop paths.
    fn moving_faulted_fingerprint(
        neighbor_grid: bool,
    ) -> (GlobalStats, Vec<(NodeStats, MacStats)>) {
        let plan = FaultPlan::default()
            .crash(SimTime::from_millis(600), 5)
            .recover(SimTime::from_millis(1400), 5)
            .burst(SimTime::from_millis(300), SimTime::from_millis(1700), 0.25);
        let mut builder = Simulator::builder(ScenarioConfig::default())
            .nodes(24)
            .seed(13)
            .mobility(Box::new(Orbit {
                n: 24,
                circumference: 2400.0,
                speed: 30.0,
            }))
            .fault_plan(plan)
            .neighbor_grid(neighbor_grid);
        for sender in [0usize, 6, 12, 18] {
            builder = builder.app(
                sender,
                Box::new(TestApp {
                    dst: NodeId((sender as u32 + 1) % 24),
                    count: 20,
                    sent: 0,
                    received: Rc::new(RefCell::new(Vec::new())),
                }),
            );
        }
        let mut sim = builder.build();
        sim.run_until_secs(2.0);
        let per_node = (0..24)
            .map(|i| (sim.node_stats(i), sim.mac_stats(i)))
            .collect();
        (sim.global_stats(), per_node)
    }

    #[test]
    fn stale_grid_with_faults_matches_full_scan() {
        let (ga, na) = moving_faulted_fingerprint(true);
        let (gb, nb) = moving_faulted_fingerprint(false);
        assert_eq!(ga, gb, "global stats diverged between grid and full scan");
        assert_eq!(na, nb, "per-node stats diverged between grid and full scan");
        assert!(ga.transmissions > 50, "scenario should carry real traffic");
    }

    /// Piecewise-constant mobility: node 1 starts in range of node 0 and
    /// jumps out of range at t = 1 s, advertising the jump via `Step` epochs.
    struct StepOut;
    impl crate::MobilityModel for StepOut {
        fn position(&self, index: usize, t: SimTime) -> (f64, f64) {
            match (index, t.as_secs_f64() < 1.0) {
                (0, _) => (0.0, 0.0),
                (_, true) => (100.0, 0.0),
                (_, false) => (5000.0, 0.0),
            }
        }
        fn node_count(&self) -> usize {
            2
        }
        fn epoch(&self, t: SimTime) -> crate::PositionEpoch {
            let id = if t.as_secs_f64() < 1.0 { 0 } else { 1 };
            crate::PositionEpoch::Step {
                id,
                start: SimTime::from_secs(id),
            }
        }
    }

    #[test]
    fn step_epochs_invalidate_the_snapshot() {
        let received = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::builder(ScenarioConfig::default())
            .nodes(2)
            .seed(5)
            .mobility(Box::new(StepOut))
            .app(
                0,
                Box::new(TestApp {
                    dst: NodeId(1),
                    count: 150,
                    sent: 0,
                    received: Rc::new(RefCell::new(Vec::new())),
                }),
            )
            .app(
                1,
                Box::new(TestApp {
                    dst: NodeId(0),
                    count: 0,
                    sent: 0,
                    received: Rc::clone(&received),
                }),
            )
            .build();
        sim.run_until_secs(2.0);
        let delivered = received.borrow().len();
        // ~100 packets fit before the jump; positions must be resampled at
        // t = 1 s or packets would keep arriving at the old position.
        assert!(delivered > 50, "in-range phase delivered {delivered}");
        assert!(
            delivered < 120,
            "deliveries continued after the epoch change ({delivered})"
        );
        assert!(
            sim.mac_stats(0).retry_drops > 0,
            "out-of-range phase must drop"
        );
    }

    /// Two nodes in range; node 0 streams to node 1 for the whole run.
    fn faulted_two_node_sim(plan: FaultPlan) -> (Simulator, Rc<RefCell<Vec<u32>>>) {
        let received = Rc::new(RefCell::new(Vec::new()));
        let sim = Simulator::builder(ScenarioConfig::default())
            .nodes(2)
            .seed(21)
            .mobility(Box::new(StaticMobility::line(2, 100.0)))
            .fault_plan(plan)
            .app(
                0,
                Box::new(TestApp {
                    dst: NodeId(1),
                    count: 100,
                    sent: 0,
                    received: Rc::new(RefCell::new(Vec::new())),
                }),
            )
            .app(
                1,
                Box::new(TestApp {
                    dst: NodeId(0),
                    count: 0,
                    sent: 0,
                    received: Rc::clone(&received),
                }),
            )
            .build();
        (sim, received)
    }

    #[test]
    fn empty_fault_plan_changes_nothing() {
        let (mut plain, rx_plain) = two_node_sim(200.0, 1);
        plain.run_until_secs(1.0);
        let (mut faulted, rx_faulted) = {
            let received = Rc::new(RefCell::new(Vec::new()));
            let sim = Simulator::builder(ScenarioConfig::default())
                .nodes(2)
                .seed(1)
                .mobility(Box::new(StaticMobility::line(2, 200.0)))
                .fault_plan(FaultPlan::new())
                .app(
                    0,
                    Box::new(TestApp {
                        dst: NodeId(1),
                        count: 5,
                        sent: 0,
                        received: Rc::new(RefCell::new(Vec::new())),
                    }),
                )
                .app(
                    1,
                    Box::new(TestApp {
                        dst: NodeId(0),
                        count: 0,
                        sent: 0,
                        received: Rc::clone(&received),
                    }),
                )
                .build();
            (sim, received)
        };
        faulted.run_until_secs(1.0);
        assert_eq!(*rx_plain.borrow(), *rx_faulted.borrow());
        assert_eq!(plain.global_stats(), faulted.global_stats());
    }

    #[test]
    fn crash_silences_a_node_and_recovery_restores_delivery() {
        let plan = FaultPlan::new()
            .crash(SimTime::from_millis(300), 1)
            .recover(SimTime::from_millis(600), 1);
        let (mut sim, received) = faulted_two_node_sim(plan);
        sim.run_until_secs(0.4);
        assert!(!sim.node_up(1), "node 1 must be down at 0.4 s");
        let during = received.borrow().len();
        assert!(during < 40, "deliveries continued into the outage");
        sim.run_until_secs(1.5);
        assert!(sim.node_up(1), "node 1 must be back up");
        let after = received.borrow().len();
        assert!(after > during, "deliveries never resumed after recovery");
        // Packets sent into the outage exhausted their retries.
        assert!(sim.mac_stats(0).retry_drops > 0);
    }

    #[test]
    fn crashed_sender_application_stays_silent() {
        let plan = FaultPlan::new()
            .crash(SimTime::from_millis(200), 0)
            .recover(SimTime::from_millis(400), 0);
        let (mut sim, _received) = faulted_two_node_sim(plan);
        sim.run_until_secs(2.0);
        let originated = sim.node_stats(0).data_originated;
        // ~20 packets fit before the crash; the app's timer chain dies with
        // the node and is not restarted on recovery.
        assert!(originated < 25, "app kept originating: {originated}");
        assert!(originated > 10, "app never ran before the crash");
    }

    #[test]
    fn total_link_loss_blocks_all_delivery() {
        let plan = FaultPlan::new().link_loss(1.0);
        let (mut sim, received) = faulted_two_node_sim(plan);
        sim.run_until_secs(1.0);
        assert!(received.borrow().is_empty(), "loss 1.0 delivered packets");
        assert!(sim.mac_stats(0).retry_drops > 0);
    }

    #[test]
    fn burst_blocks_delivery_only_inside_its_window() {
        let plan =
            FaultPlan::new().burst_at(1, SimTime::from_millis(300), SimTime::from_millis(600), 1.0);
        let (mut sim, received) = faulted_two_node_sim(plan);
        sim.run_until_secs(0.3);
        let before = received.borrow().len();
        assert!(before > 10, "pre-burst phase must deliver");
        sim.run_until_secs(1.5);
        let total = received.borrow().len();
        assert!(
            total > before,
            "post-burst phase must deliver again ({total} vs {before})"
        );
        assert!(total < 100, "the burst window must cost deliveries");
    }

    #[test]
    fn try_build_reports_invalid_plans_and_configs() {
        let e = Simulator::builder(ScenarioConfig::default())
            .nodes(2)
            .fault_plan(FaultPlan::new().crash(SimTime::from_secs(1), 7))
            .try_build()
            .err();
        assert_eq!(e, Some(NetError::FaultUnknownNode { node: 7, nodes: 2 }));
        let e = Simulator::builder(ScenarioConfig::default())
            .nodes(2)
            .app(5, Box::new(NullApplication))
            .try_build()
            .err();
        assert_eq!(e, Some(NetError::UnknownNode { node: 5 }));
        let e = Simulator::builder(ScenarioConfig::default())
            .nodes(4)
            .mobility(Box::new(StaticMobility::line(2, 100.0)))
            .try_build()
            .err();
        assert_eq!(
            e,
            Some(NetError::MobilityTooSmall {
                nodes: 4,
                covered: 2
            })
        );
    }

    /// A config that would panic mid-run (a zero bit rate is a zero
    /// divisor of every airtime, a zero slot of the backoff freeze) is
    /// refused at build with a typed error naming the field.
    #[test]
    fn malformed_configs_are_refused_at_build() {
        let build = |config: ScenarioConfig| {
            let mut b = Simulator::builder(config)
                .nodes(3)
                .mobility(Box::new(StaticMobility::line(3, 100.0)));
            for i in 0..3 {
                b = b.app(i, Box::new(Bcast { sent: false }));
            }
            b.try_build()
        };
        let with = |corrupt: fn(&mut ScenarioConfig)| {
            let mut config = ScenarioConfig::default();
            corrupt(&mut config);
            config
        };
        let cases = [
            ("phy.data_rate_bps", with(|c| c.phy.data_rate_bps = 0.0)),
            (
                "phy.data_rate_bps",
                with(|c| c.phy.data_rate_bps = f64::NAN),
            ),
            ("phy.basic_rate_bps", with(|c| c.phy.basic_rate_bps = -1e6)),
            (
                "phy.basic_rate_bps",
                with(|c| c.phy.basic_rate_bps = f64::INFINITY),
            ),
            ("mac.slot", with(|c| c.mac.slot = Duration::ZERO)),
            ("mac.cw_min", with(|c| c.mac.cw_min = u32::MAX)),
            ("mac.cw_max", with(|c| c.mac.cw_max = 1 << 31)),
        ];
        for (field, config) in cases {
            match build(config) {
                Err(e) => assert!(e.to_string().contains(field), "{field}: {e}"),
                Ok(mut sim) => {
                    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        sim.run_until_secs(1.0)
                    }));
                    panic!("{field}: built, and the run panicked: {}", run.is_err());
                }
            }
        }
        let mut sim = build(ScenarioConfig::default()).expect("the default config builds");
        sim.run_until_secs(1.0);
        assert_eq!(sim.global_stats().transmissions, 3);
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let plan = || {
            FaultPlan::new()
                .crash(SimTime::from_millis(250), 1)
                .recover(SimTime::from_millis(700), 1)
                .link_loss(0.1)
        };
        let (mut a, ra) = faulted_two_node_sim(plan());
        let (mut b, rb) = faulted_two_node_sim(plan());
        a.run_until_secs(1.5);
        b.run_until_secs(1.5);
        assert_eq!(*ra.borrow(), *rb.borrow());
        assert_eq!(a.global_stats(), b.global_stats());
        assert_eq!(a.mac_stats(0), b.mac_stats(0));
        assert_eq!(a.node_stats(1), b.node_stats(1));
    }

    /// Capture every snapshot section of `sim` as independent byte blobs.
    fn snapshot_all(sim: &Simulator) -> [Vec<u8>; 5] {
        let codec = sim.control_codec();
        let mut engine = WireWriter::new();
        sim.capture_engine(&mut engine).unwrap();
        let mut channel = WireWriter::new();
        sim.capture_channel(&mut channel, codec.as_ref()).unwrap();
        let mut link = WireWriter::new();
        sim.capture_link(&mut link, codec.as_ref()).unwrap();
        let mut routing = WireWriter::new();
        sim.capture_routing(&mut routing).unwrap();
        let mut apps = WireWriter::new();
        sim.capture_apps(&mut apps).unwrap();
        [
            engine.into_bytes(),
            channel.into_bytes(),
            link.into_bytes(),
            routing.into_bytes(),
            apps.into_bytes(),
        ]
    }

    /// Restore every section into a factory-fresh `sim`.
    fn restore_all(sim: &mut Simulator, sections: &[Vec<u8>; 5]) {
        let codec = sim.control_codec();
        let mut r = WireReader::new(&sections[0]);
        sim.restore_engine(&mut r).unwrap();
        r.finish().unwrap();
        let mut r = WireReader::new(&sections[1]);
        sim.restore_channel(&mut r, codec.as_ref()).unwrap();
        r.finish().unwrap();
        let mut r = WireReader::new(&sections[2]);
        sim.restore_link(&mut r, codec.as_ref()).unwrap();
        r.finish().unwrap();
        let mut r = WireReader::new(&sections[3]);
        sim.restore_routing(&mut r).unwrap();
        r.finish().unwrap();
        let mut r = WireReader::new(&sections[4]);
        sim.restore_apps(&mut r).unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn snapshot_resume_matches_straight_run() {
        let (mut straight, _) = two_node_sim(200.0, 42);
        straight.run_until_secs(1.0);

        let (mut first, _) = two_node_sim(200.0, 42);
        first.run_until_secs(0.033); // mid-traffic: frames queued and in flight
        let sections = snapshot_all(&first);

        let (mut resumed, _) = two_node_sim(200.0, 42);
        restore_all(&mut resumed, &sections);
        assert_eq!(resumed.now(), first.now());
        resumed.run_until_secs(1.0);

        assert_eq!(resumed.global_stats(), straight.global_stats());
        for i in 0..2 {
            assert_eq!(resumed.mac_stats(i), straight.mac_stats(i));
            assert_eq!(resumed.node_stats(i), straight.node_stats(i));
        }
        assert_eq!(resumed.drop_counts(), straight.drop_counts());
    }

    #[test]
    fn snapshot_resume_matches_straight_run_with_faults() {
        let plan = || {
            FaultPlan::new()
                .crash(SimTime::from_millis(300), 1)
                .recover(SimTime::from_millis(600), 1)
                .link_loss(0.05)
        };
        let (mut straight, _) = faulted_two_node_sim(plan());
        straight.run_until_secs(1.5);

        let (mut first, _) = faulted_two_node_sim(plan());
        first.run_until_secs(0.35); // node 1 is down; recovery still queued
        assert!(!first.node_up(1));
        let sections = snapshot_all(&first);

        let (mut resumed, _) = faulted_two_node_sim(plan());
        restore_all(&mut resumed, &sections);
        assert!(!resumed.node_up(1), "liveness must be restored");
        resumed.run_until_secs(1.5);
        assert!(resumed.node_up(1), "queued recovery must still fire");

        assert_eq!(resumed.global_stats(), straight.global_stats());
        for i in 0..2 {
            assert_eq!(resumed.mac_stats(i), straight.mac_stats(i));
            assert_eq!(resumed.node_stats(i), straight.node_stats(i));
        }
        assert_eq!(resumed.drop_counts(), straight.drop_counts());
    }

    #[test]
    fn restore_rejects_wrong_scenario_and_corrupt_streams() {
        let (mut sim, _) = two_node_sim(200.0, 7);
        sim.run_until_secs(0.05);
        let sections = snapshot_all(&sim);

        // Wrong node count.
        let mut other = Simulator::builder(ScenarioConfig::default())
            .nodes(3)
            .mobility(Box::new(StaticMobility::line(3, 100.0)))
            .build();
        let mut r = WireReader::new(&sections[0]);
        assert!(matches!(
            other.restore_engine(&mut r),
            Err(WireError::Malformed { .. })
        ));

        // Truncated engine stream.
        let (mut fresh, _) = two_node_sim(200.0, 7);
        let cut = &sections[0][..sections[0].len() - 3];
        let mut r = WireReader::new(cut);
        assert!(matches!(
            fresh.restore_engine(&mut r),
            Err(WireError::Truncated { .. })
        ));

        // Trailing garbage after a well-formed stream.
        let mut bad = sections[0].clone();
        bad.push(0xAB);
        let mut r = WireReader::new(&bad);
        let res = fresh.restore_engine(&mut r).and_then(|()| r.finish());
        assert!(matches!(res, Err(WireError::TrailingBytes { extra: 1 })));
    }

    /// A static layout held in shared state, so a test can move a node
    /// without the model declaring it.
    struct SharedLayout(Rc<RefCell<Vec<(f64, f64)>>>);
    impl crate::MobilityModel for SharedLayout {
        fn position(&self, index: usize, _t: SimTime) -> (f64, f64) {
            self.0.borrow()[index]
        }
        fn node_count(&self) -> usize {
            self.0.borrow().len()
        }
        fn epoch(&self, _t: SimTime) -> PositionEpoch {
            PositionEpoch::Static
        }
    }

    #[test]
    fn node_moved_marks_snapshot_stale() {
        // Node 1 starts 5 km from broadcaster 0, then moves to 100 m.
        let layout = Rc::new(RefCell::new(vec![(0.0, 0.0), (5000.0, 0.0)]));
        let mut sim = Simulator::builder(ScenarioConfig::default())
            .nodes(2)
            .mobility(Box::new(SharedLayout(Rc::clone(&layout))))
            .app(
                0,
                Box::new(TestApp {
                    dst: NodeId::BROADCAST,
                    count: 100,
                    sent: 0,
                    received: Rc::new(RefCell::new(Vec::new())),
                }),
            )
            .build();
        sim.run_until_secs(0.2);
        let before = sim.global_stats();
        assert!(before.transmissions > 10, "{before:?}");
        assert_eq!(before.decoded, 0, "node 1 is out of range");
        layout.borrow_mut()[1] = (100.0, 0.0);
        sim.node_moved();
        sim.run_until_secs(0.4);
        let after = sim.global_stats();
        // Every frame sent after the move, the first one included, is
        // decoded at node 1.
        assert!(after.transmissions > before.transmissions);
        assert_eq!(
            after.decoded,
            after.transmissions - before.transmissions,
            "{after:?}"
        );
    }
}
