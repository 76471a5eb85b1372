//! Shared helpers for protocol tests: a deterministic packet source/sink
//! pair and scenario runners over line and ring topologies.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use cavenet_net::{
    Application, FlowId, GoldenDigest, NodeApi, NodeId, Packet, RoutingProtocol, ScenarioConfig,
    SimTime, Simulator, StaticMobility, WireError, WireReader, WireWriter,
};

/// Sequence numbers and receive times observed by a sink.
#[derive(Debug, Default)]
pub(crate) struct SinkLog {
    pub received: Vec<(u32, SimTime)>,
}

/// Sends `count` packets of 512 B to `dst`, one every `interval`, starting
/// after `start_delay`.
pub(crate) struct TestSource {
    pub dst: NodeId,
    pub interval: Duration,
    pub count: u32,
    pub start_delay: Duration,
    sent: u32,
}

impl TestSource {
    pub fn new(dst: NodeId, count: u32) -> Self {
        TestSource {
            dst,
            interval: Duration::from_millis(200),
            count,
            start_delay: Duration::from_millis(500),
            sent: 0,
        }
    }
}

impl Application for TestSource {
    fn start(&mut self, api: &mut NodeApi<'_>) {
        if self.count > 0 {
            api.schedule(self.start_delay, 0);
        }
    }

    fn handle_timer(&mut self, api: &mut NodeApi<'_>, _token: u64) {
        let flow = FlowId::new(api.id(), self.dst, 0);
        api.originate(Packet::data(flow, self.sent, 512, api.now()));
        self.sent += 1;
        if self.sent < self.count {
            api.schedule(self.interval, 0);
        }
    }
}

/// Records every data packet that arrives.
pub(crate) struct TestSink {
    pub log: Rc<RefCell<SinkLog>>,
}

impl Application for TestSink {
    fn handle_packet(&mut self, api: &mut NodeApi<'_>, packet: &Packet) {
        if let Some(d) = packet.body.as_data() {
            self.log.borrow_mut().received.push((d.seq, api.now()));
        }
    }
}

/// Run `packets` packets from node `src` to node `dst` on an `n`-node line
/// with the given spacing, under the protocol produced by `factory`.
/// Returns the sink log and the finished simulator.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_line<F>(
    n: usize,
    spacing: f64,
    factory: F,
    src: usize,
    dst: usize,
    packets: u32,
    secs: f64,
    seed: u64,
) -> (Rc<RefCell<SinkLog>>, Simulator)
where
    F: Fn(usize) -> Box<dyn RoutingProtocol> + 'static,
{
    run_with_mobility(
        StaticMobility::line(n, spacing),
        n,
        factory,
        src,
        dst,
        packets,
        secs,
        seed,
    )
}

/// Same as [`run_line`] on a ring topology of the given circumference.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_ring<F>(
    n: usize,
    circumference: f64,
    factory: F,
    src: usize,
    dst: usize,
    packets: u32,
    secs: f64,
    seed: u64,
) -> (Rc<RefCell<SinkLog>>, Simulator)
where
    F: Fn(usize) -> Box<dyn RoutingProtocol> + 'static,
{
    run_with_mobility(
        StaticMobility::ring(n, circumference),
        n,
        factory,
        src,
        dst,
        packets,
        secs,
        seed,
    )
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn run_with_mobility<F>(
    mobility: StaticMobility,
    n: usize,
    factory: F,
    src: usize,
    dst: usize,
    packets: u32,
    secs: f64,
    seed: u64,
) -> (Rc<RefCell<SinkLog>>, Simulator)
where
    F: Fn(usize) -> Box<dyn RoutingProtocol> + 'static,
{
    let log = Rc::new(RefCell::new(SinkLog::default()));
    let mut sim = Simulator::builder(ScenarioConfig::default())
        .nodes(n)
        .seed(seed)
        .mobility(Box::new(mobility))
        .routing_with(factory)
        .app(src, Box::new(TestSource::new(NodeId(dst as u32), packets)))
        .app(
            dst,
            Box::new(TestSink {
                log: Rc::clone(&log),
            }),
        )
        .build();
    sim.run_until_secs(secs);
    (log, sim)
}

/// Drive a warmed-up line scenario, then prove that every node's routing
/// state survives a capture → restore-into-fresh-instance → re-capture
/// cycle bit-identically.
pub(crate) fn assert_snapshot_round_trip<F>(n: usize, factory: F, secs: f64, seed: u64)
where
    F: Fn(usize) -> Box<dyn RoutingProtocol> + Clone + 'static,
{
    let (_, sim) = run_line(n, 200.0, factory.clone(), 0, n - 1, 10, secs, seed);
    for i in 0..n {
        let proto = sim.routing(i).expect("routing attached");
        let mut w = WireWriter::new();
        proto.capture_state(&mut w).expect("capture");
        let bytes = w.into_bytes();
        assert!(
            !bytes.is_empty(),
            "node {i}: warmed-up protocol produced an empty snapshot"
        );

        let mut fresh = factory(i);
        let mut r = WireReader::new(&bytes);
        fresh.restore_state(&mut r).expect("restore");
        r.finish().expect("restore must consume the whole stream");

        let mut w2 = WireWriter::new();
        fresh.capture_state(&mut w2).expect("re-capture");
        assert_eq!(
            bytes,
            w2.into_bytes(),
            "node {i}: restore → capture is not bit-identical"
        );
    }
}

/// Sends one packet to each of `dsts`, all at 0.5 s.
pub(crate) struct Spray {
    pub dsts: Vec<NodeId>,
}

impl Application for Spray {
    fn start(&mut self, api: &mut NodeApi<'_>) {
        api.schedule(Duration::from_millis(500), 0);
    }

    fn handle_timer(&mut self, api: &mut NodeApi<'_>, _token: u64) {
        for (seq, &dst) in self.dsts.iter().enumerate() {
            let flow = FlowId::new(api.id(), dst, 0);
            api.originate(Packet::data(flow, seq as u32, 512, api.now()));
        }
    }
}

/// What [`spray_run`] observed.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct SprayRun {
    /// Node 0's routing state (FNV-1a hash and length) at 0.52 s, with
    /// every discovery still buffering its packet, and at the end.
    pub states: [(u64, usize); 2],
    /// The finished event-stream digest and event count.
    pub digest: (u64, u64),
    /// Node 0's discoveries started, retried, succeeded and failed.
    pub discoveries: [u64; 4],
}

/// Node 0 of an `n`-node line (200 m spacing) sends one packet to every
/// other node at the same instant, so several discoveries run at once.
pub(crate) fn spray_run<F>(n: usize, factory: F, seed: u64, secs: f64) -> SprayRun
where
    F: Fn(usize) -> Box<dyn RoutingProtocol> + 'static,
{
    let mut sim = Simulator::builder(ScenarioConfig::default())
        .nodes(n)
        .seed(seed)
        .mobility(Box::new(StaticMobility::line(n, 200.0)))
        .observer(GoldenDigest::new())
        .routing_with(factory)
        .app(
            0,
            Box::new(Spray {
                dsts: (1..n as u32).map(NodeId).collect(),
            }),
        )
        .build();
    let state = |sim: &Simulator<GoldenDigest>| {
        let mut w = WireWriter::new();
        let node0 = sim.routing(0).expect("routing attached");
        node0.capture_state(&mut w).expect("capture");
        let bytes = w.into_bytes();
        (cavenet_rng::fnv::fnv64(&bytes), bytes.len())
    };
    sim.run_until(SimTime::from_millis(520));
    let mid = state(&sim);
    sim.run_until_secs(secs);
    let t = sim.routing(0).expect("routing attached").telemetry();
    SprayRun {
        states: [mid, state(&sim)],
        digest: sim.observer().finalize(&sim),
        discoveries: [
            t.discoveries_started,
            t.discovery_retries,
            t.discoveries_succeeded,
            t.discoveries_failed,
        ],
    }
}

/// Feed `decode` the bytes `prefix`, then an item count of 2^40 or 2^61,
/// then a few more bytes: each count must be refused as truncated before
/// anything is sized from it.
pub(crate) fn assert_refuses_huge_counts<T: std::fmt::Debug>(
    prefix: &[u8],
    mut decode: impl FnMut(&mut WireReader<'_>) -> Result<T, WireError>,
) {
    for count in [1u64 << 40, 1 << 61] {
        let mut bytes = prefix.to_vec();
        bytes.extend_from_slice(&count.to_le_bytes());
        bytes.extend_from_slice(&[0; 16]);
        let got = decode(&mut WireReader::new(&bytes));
        assert!(
            matches!(got, Err(WireError::Truncated { .. })),
            "count {count}: {got:?}"
        );
    }
}
