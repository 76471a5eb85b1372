//! Dynamic MANET On-demand routing (DYMO, draft-ietf-manet-dymo-14).
//!
//! DYMO builds on AODV's on-demand discovery but adds **path accumulation**
//! (paper §III-B-3): route messages carry the addresses and sequence numbers
//! of every node they traversed, so "besides route information about a
//! requested target, a node will also receive information about all
//! intermediate nodes of a newly discovered path". The other difference the
//! paper highlights: link failures are disseminated by *flooding* RERRs to
//! all nodes in range, which in turn re-flood if routes they know become
//! invalid.
//!
//! What DYMO shares with AODV — the discovery buffer and its tick,
//! neighbour liveness, the duplicate cache, those flooded RERRs, HELLOs,
//! telemetry and the checkpoint state — is the on-demand core
//! (`on_demand.rs`). This module keeps what is DYMO's own: route messages
//! with path accumulation, a linear retry whose every attempt claims a new
//! sequence number, and flushing every discovery one reply satisfies.

use std::sync::Arc;
use std::time::Duration;

use cavenet_net::snapshot::{read_node_id, write_node_id};
use cavenet_net::{
    ControlBlob, ControlCodec, NodeApi, NodeId, Packet, RoutingProtocol, RoutingTelemetry,
    WireError, WireReader, WireWriter,
};

use crate::on_demand::{CoreConfig, Discovery, OnDemand, SharedTags};
use crate::table::{seq_newer, RouteEntry, RouteTable};

/// DYMO tunables (draft defaults, HELLO interval per paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DymoConfig {
    /// HELLO broadcast interval (Table 1: 1 s).
    pub hello_interval: Duration,
    /// Missed HELLOs before a neighbour is declared lost.
    pub allowed_hello_loss: u32,
    /// Route lifetime granted on installation/use (ROUTE_TIMEOUT).
    pub route_timeout: Duration,
    /// Wait per discovery attempt (RREQ_WAIT_TIME).
    pub discovery_timeout: Duration,
    /// Discovery attempts before giving up (RREQ_TRIES).
    pub max_discovery_retries: u32,
    /// RREQ flood TTL (MSG_HOPLIMIT).
    pub hop_limit: u8,
    /// How long buffered data waits for a route.
    pub max_queue_time: Duration,
}

impl Default for DymoConfig {
    fn default() -> Self {
        DymoConfig {
            hello_interval: Duration::from_secs(1),
            allowed_hello_loss: 2,
            route_timeout: Duration::from_secs(5),
            discovery_timeout: Duration::from_secs(1),
            max_discovery_retries: 3,
            hop_limit: 20,
            max_queue_time: Duration::from_secs(10),
        }
    }
}

impl DymoConfig {
    /// The retry rule for a discovery whose attempt timed out: the wait of
    /// its next attempt, or `None` to give up. The backoff is linear:
    /// retry k waits k + 1 discovery timeouts.
    fn next_attempt(&self, p: &mut Discovery) -> Option<Duration> {
        p.retries += 1;
        (p.retries <= self.max_discovery_retries).then(|| self.discovery_timeout * (p.retries + 1))
    }
}

/// An address block entry accumulated along a route message's path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PathNode {
    addr: NodeId,
    seqno: u32,
}

/// Wire bytes of one [`PathNode`].
const PATH_NODE_BYTES: usize = 8;

/// DYMO Routing Message — RREQ and RREP share the structure (the draft's
/// generic RM with a target and an accumulated address block). Wire size ≈
/// 8 + 8·path bytes.
#[derive(Debug, Clone)]
struct RouteMessage {
    is_reply: bool,
    /// Node the message tries to reach (RREQ) or inform (RREP target =
    /// RREQ's originator).
    target: NodeId,
    /// Known target sequence number, for freshness comparison at
    /// intermediates.
    target_seq: Option<u32>,
    /// Discovery id (originator-scoped) for duplicate suppression.
    msg_id: u32,
    /// Accumulated path: front is the originator, back is the latest hop.
    path: Vec<PathNode>,
}

impl RouteMessage {
    fn origin(&self) -> NodeId {
        self.path.first().expect("path never empty").addr
    }

    fn wire_size(&self) -> u32 {
        8 + 8 * self.path.len() as u32
    }
}

/// HELLO wire size.
const HELLO_SIZE: u32 = 8;

/// The DYMO routing protocol state for one node.
#[derive(Debug)]
pub struct Dymo {
    config: DymoConfig,
    core: OnDemand,
}

impl Default for Dymo {
    fn default() -> Self {
        Self::new()
    }
}

impl Dymo {
    /// DYMO with default configuration.
    pub fn new() -> Self {
        Self::with_config(DymoConfig::default())
    }

    /// DYMO with explicit configuration.
    pub fn with_config(config: DymoConfig) -> Self {
        let core = OnDemand::new(CoreConfig {
            hello_interval: config.hello_interval,
            allowed_hello_loss: config.allowed_hello_loss,
            route_timeout: config.route_timeout,
            max_queue_time: config.max_queue_time,
            hello_size: HELLO_SIZE,
            ttl_in_state: false,
        });
        Dymo { config, core }
    }

    /// Read access to the routing table.
    pub fn table(&self) -> &RouteTable {
        &self.core.table
    }

    /// Install routes to **every** node on the accumulated path — DYMO's
    /// signature behaviour.
    fn learn_path(&mut self, api: &mut NodeApi<'_>, msg: &RouteMessage, from: NodeId) {
        let now = api.now();
        let len = msg.path.len() as u32;
        for (i, node) in msg.path.iter().enumerate() {
            if node.addr == api.id() {
                continue;
            }
            // The message travelled (len − i) hops from path[i] to us
            // (path[len−1] is our neighbour `from`, one hop away).
            let hops = len - i as u32;
            self.core.table.offer(
                node.addr,
                RouteEntry {
                    next_hop: from,
                    hop_count: hops,
                    seqno: node.seqno,
                    expires: now + self.config.route_timeout,
                    valid: true,
                },
                now,
            );
        }
    }

    fn send_reply(&mut self, api: &mut NodeApi<'_>, req: &RouteMessage, via: NodeId) {
        let core = &mut self.core;
        core.seqno = core.seqno.wrapping_add(1);
        core.msg_id = core.msg_id.wrapping_add(1);
        let msg = RouteMessage {
            is_reply: true,
            target: req.origin(),
            target_seq: None,
            msg_id: core.msg_id,
            path: vec![PathNode {
                addr: api.id(),
                seqno: core.seqno,
            }],
        };
        let size = msg.wire_size();
        let packet = Packet::control(api.id(), req.origin(), size, msg);
        api.send(packet, via);
    }

    fn handle_route_message(
        &mut self,
        api: &mut NodeApi<'_>,
        packet: &Packet,
        msg: &RouteMessage,
        from: NodeId,
    ) {
        let now = api.now();
        if !msg.is_reply && self.core.seen_before(msg.origin(), msg.msg_id, now) {
            return;
        }
        self.core.touch_neighbour(api, from, None);
        self.learn_path(api, msg, from);

        if !msg.is_reply {
            if msg.target == api.id() {
                self.send_reply(api, msg, from);
                return;
            }
            // Intermediate reply when a fresh-enough route is known.
            if let Some(route) = self.core.table.lookup(msg.target, now) {
                let fresh = msg
                    .target_seq
                    .is_none_or(|want| !seq_newer(want, route.seqno));
                if fresh {
                    let seqno = route.seqno;
                    self.core.msg_id = self.core.msg_id.wrapping_add(1);
                    let reply = RouteMessage {
                        is_reply: true,
                        target: msg.origin(),
                        target_seq: None,
                        msg_id: self.core.msg_id,
                        path: vec![PathNode {
                            addr: msg.target,
                            seqno,
                        }],
                    };
                    let size = reply.wire_size();
                    let reply_packet = Packet::control(api.id(), msg.origin(), size, reply);
                    api.send(reply_packet, from);
                    return;
                }
            }
            // Re-flood with ourselves appended (path accumulation).
            if packet.ttl <= 1 {
                return;
            }
            let mut fwd = msg.clone();
            fwd.path.push(PathNode {
                addr: api.id(),
                seqno: self.core.seqno,
            });
            let size = fwd.wire_size();
            let mut fwd_packet = Packet::control(msg.origin(), NodeId::BROADCAST, size, fwd);
            fwd_packet.ttl = packet.ttl - 1;
            api.send(fwd_packet, NodeId::BROADCAST);
        } else {
            // RREP travelling back to its target (the original requester).
            if msg.target == api.id() {
                self.core.complete_discovery(api, msg.origin());
                // Path accumulation may have satisfied other discoveries.
                // Flush in destination order: HashMap iteration order is
                // per-process random and the send order is observable.
                let mut satisfied: Vec<NodeId> = self
                    .core
                    .discovering()
                    .filter(|&d| self.core.table.lookup(d, now).is_some())
                    .collect();
                satisfied.sort_by_key(|d| d.0);
                for d in satisfied {
                    self.core.complete_discovery(api, d);
                }
                return;
            }
            if let Some(route) = self.core.table.lookup(msg.target, now) {
                let nh = route.next_hop;
                let mut fwd = msg.clone();
                fwd.path.push(PathNode {
                    addr: api.id(),
                    seqno: self.core.seqno,
                });
                let size = fwd.wire_size();
                let fwd_packet = Packet::control(api.id(), msg.target, size, fwd);
                api.send(fwd_packet, nh);
            }
        }
    }
}

/// Flood a RREQ for `dst` with `hop_limit`: every attempt, first or retry,
/// claims a new sequence number and message id.
fn send_rreq(core: &mut OnDemand, api: &mut NodeApi<'_>, dst: NodeId, hop_limit: u8) {
    core.seqno = core.seqno.wrapping_add(1);
    let msg = RouteMessage {
        is_reply: false,
        target: dst,
        target_seq: core.table.get(dst).map(|r| r.seqno),
        msg_id: core.new_request_id(api),
        path: vec![PathNode {
            addr: api.id(),
            seqno: core.seqno,
        }],
    };
    let size = msg.wire_size();
    let mut packet = Packet::control(api.id(), NodeId::BROADCAST, size, msg);
    packet.ttl = hop_limit;
    api.send(packet, NodeId::BROADCAST);
}

/// Serializer for DYMO's in-flight control payloads (route messages with
/// their accumulated paths, RERRs, HELLOs). Tag bytes are part of the
/// checkpoint format and fixed forever.
#[derive(Debug, Clone, Copy, Default)]
pub struct DymoCodec;

const CTRL_RM: u8 = 1;
const TAGS: SharedTags = SharedTags {
    rerr: 2,
    hello: 3,
    foreign: "non-DYMO control payload",
    unknown: "dymo control tag",
};

impl ControlCodec for DymoCodec {
    fn encode(&self, blob: &ControlBlob, w: &mut WireWriter) -> Result<(), WireError> {
        let Some(m) = blob.downcast_ref::<RouteMessage>() else {
            return TAGS.encode(blob, w);
        };
        w.put_u8(CTRL_RM);
        w.put_bool(m.is_reply);
        write_node_id(w, m.target);
        match m.target_seq {
            None => w.put_bool(false),
            Some(s) => {
                w.put_bool(true);
                w.put_u32(s);
            }
        }
        w.put_u32(m.msg_id);
        w.put_usize(m.path.len());
        for node in &m.path {
            write_node_id(w, node.addr);
            w.put_u32(node.seqno);
        }
        Ok(())
    }

    fn decode(&self, r: &mut WireReader<'_>) -> Result<ControlBlob, WireError> {
        let tag = r.get_u8()?;
        if tag != CTRL_RM {
            return TAGS.decode(tag, r);
        }
        let is_reply = r.get_bool()?;
        let target = read_node_id(r)?;
        let target_seq = if r.get_bool()? {
            Some(r.get_u32()?)
        } else {
            None
        };
        let msg_id = r.get_u32()?;
        let n = r.get_count(PATH_NODE_BYTES)?;
        if n == 0 {
            // `RouteMessage::origin` relies on a non-empty path.
            return Err(WireError::Malformed {
                what: "empty DYMO path",
                value: 0,
            });
        }
        let mut path = Vec::with_capacity(n);
        for _ in 0..n {
            let addr = read_node_id(r)?;
            let seqno = r.get_u32()?;
            path.push(PathNode { addr, seqno });
        }
        Ok(Arc::new(RouteMessage {
            is_reply,
            target,
            target_seq,
            msg_id,
            path,
        }))
    }
}

impl RoutingProtocol for Dymo {
    fn name(&self) -> &'static str {
        "dymo"
    }

    fn start(&mut self, api: &mut NodeApi<'_>) {
        self.core.start(api);
    }

    fn route_output(&mut self, api: &mut NodeApi<'_>, packet: Packet) {
        let wait = self.config.discovery_timeout;
        if let Some(dst) = self.core.route_output(api, packet, 0, wait) {
            send_rreq(&mut self.core, api, dst, self.config.hop_limit);
        }
    }

    fn handle_received(&mut self, api: &mut NodeApi<'_>, packet: Packet, from: NodeId) {
        if let Some(msg) = packet.body.as_control::<RouteMessage>() {
            let msg = msg.clone();
            self.handle_route_message(api, &packet, &msg, from);
            return;
        }
        if let Some(packet) = self.core.receive(api, packet, from) {
            self.core.forward_data(api, packet);
        }
    }

    fn handle_timer(&mut self, api: &mut NodeApi<'_>, token: u64) {
        let config = self.config;
        self.core.handle_timer(
            api,
            token,
            |p| config.next_attempt(p),
            |core, api, dst, _| send_rreq(core, api, dst, config.hop_limit),
        );
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn tx_failed(&mut self, api: &mut NodeApi<'_>, packet: Packet, next_hop: NodeId) {
        if let Some(packet) = self.core.tx_failed(api, packet, next_hop) {
            self.route_output(api, packet);
        }
    }

    fn on_crash(&mut self, api: &mut NodeApi<'_>) {
        self.core.on_crash(api);
    }

    fn telemetry(&self) -> RoutingTelemetry {
        self.core.telemetry()
    }

    fn capture_state(&self, w: &mut WireWriter) -> Result<(), WireError> {
        self.core.capture(w)
    }

    fn restore_state(&mut self, r: &mut WireReader<'_>) -> Result<(), WireError> {
        self.core.restore(r)
    }

    fn control_codec(&self) -> Option<Box<dyn ControlCodec>> {
        Some(Box::new(DymoCodec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::on_demand::{Hello, Rerr};
    use crate::testutil::{run_line, run_ring};

    #[test]
    fn name() {
        assert_eq!(Dymo::new().name(), "dymo");
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        crate::testutil::assert_snapshot_round_trip(4, |_| Box::new(Dymo::new()), 8.0, 7);
    }

    #[test]
    fn codec_round_trips_every_control_message() {
        let codec = DymoCodec;
        let blobs: Vec<ControlBlob> = vec![
            std::sync::Arc::new(RouteMessage {
                is_reply: false,
                target: NodeId(3),
                target_seq: None,
                msg_id: 5,
                path: vec![PathNode {
                    addr: NodeId(0),
                    seqno: 2,
                }],
            }),
            std::sync::Arc::new(RouteMessage {
                is_reply: true,
                target: NodeId(0),
                target_seq: Some(7),
                msg_id: 5,
                path: vec![
                    PathNode {
                        addr: NodeId(3),
                        seqno: 9,
                    },
                    PathNode {
                        addr: NodeId(2),
                        seqno: 1,
                    },
                ],
            }),
            std::sync::Arc::new(Rerr {
                unreachable: vec![(NodeId(5), 11)],
            }),
            std::sync::Arc::new(Hello { seq: 42 }),
        ];
        for blob in blobs {
            let mut w = WireWriter::new();
            codec.encode(&blob, &mut w).expect("encode");
            let bytes = w.into_bytes();
            let mut r = WireReader::new(&bytes);
            let decoded = codec.decode(&mut r).expect("decode");
            r.finish().expect("whole stream consumed");
            let mut w2 = WireWriter::new();
            codec.encode(&decoded, &mut w2).expect("re-encode");
            assert_eq!(bytes, w2.into_bytes(), "codec round trip not stable");
        }
    }

    #[test]
    fn codec_rejects_empty_path() {
        // RouteMessage::origin() panics on an empty path, so the decoder
        // must refuse to materialize one from a (corrupt) snapshot.
        let codec = DymoCodec;
        let mut w = WireWriter::new();
        w.put_u8(CTRL_RM);
        w.put_bool(false);
        write_node_id(&mut w, NodeId(3));
        w.put_bool(false); // no target_seq
        w.put_u32(5);
        w.put_usize(0); // empty path — must be rejected
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            codec.decode(&mut r),
            Err(WireError::Malformed {
                what: "empty DYMO path",
                ..
            })
        ));
    }

    #[test]
    fn codec_refuses_counts_the_payload_cannot_hold() {
        use crate::testutil::assert_refuses_huge_counts;
        assert_refuses_huge_counts(&[TAGS.rerr], |r| DymoCodec.decode(r));
        // A route message up to its path length: tag, request flag,
        // target, no target sequence number, message id.
        let mut w = WireWriter::new();
        w.put_u8(CTRL_RM);
        w.put_bool(false);
        write_node_id(&mut w, NodeId(3));
        w.put_bool(false);
        w.put_u32(5);
        assert_refuses_huge_counts(&w.into_bytes(), |r| DymoCodec.decode(r));
    }

    #[test]
    fn single_hop_delivery() {
        let (log, _) = run_line(2, 200.0, |_| Box::new(Dymo::new()), 0, 1, 10, 10.0, 1);
        assert_eq!(log.borrow().received.len(), 10);
    }

    #[test]
    fn multi_hop_delivery() {
        let (log, _) = run_line(5, 200.0, |_| Box::new(Dymo::new()), 0, 4, 10, 15.0, 2);
        let got = log.borrow().received.len();
        assert!(got >= 9, "DYMO should deliver nearly all, got {got}/10");
    }

    #[test]
    fn ring_delivery() {
        let (log, _) = run_ring(30, 3000.0, |_| Box::new(Dymo::new()), 5, 0, 10, 20.0, 3);
        let got = log.borrow().received.len();
        assert!(got >= 8, "ring delivery too low: {got}/10");
    }

    #[test]
    fn partitioned_destination_not_delivered() {
        let mobility =
            cavenet_net::StaticMobility::new(vec![(0.0, 0.0), (200.0, 0.0), (5000.0, 0.0)]);
        let (log, _) = crate::testutil::run_with_mobility(
            mobility,
            3,
            |_| Box::new(Dymo::new()),
            0,
            2,
            5,
            15.0,
            5,
        );
        assert_eq!(log.borrow().received.len(), 0);
    }

    #[test]
    fn delivery_matches_aodv_on_same_scenario() {
        let (dymo_log, _) = run_line(5, 200.0, |_| Box::new(Dymo::new()), 0, 4, 10, 15.0, 6);
        let (aodv_log, _) = run_line(
            5,
            200.0,
            |_| Box::new(crate::Aodv::new()),
            0,
            4,
            10,
            15.0,
            6,
        );
        let d = dymo_log.borrow().received.len() as i64;
        let a = aodv_log.borrow().received.len() as i64;
        assert!((d - a).abs() <= 2, "DYMO {d} vs AODV {a}");
    }

    #[test]
    fn second_flow_reuses_accumulated_routes() {
        // Flow 1: 0→4 discovers through 1,2,3. Flow 2: 2→0 afterwards.
        // Node 2 learned a route to 0 from flow 1's RREQ path accumulation,
        // so flow 2's first packet should go out with NO new discovery —
        // observable as low first-packet latency.
        use cavenet_net::{NodeId, ScenarioConfig, Simulator, StaticMobility};
        use std::cell::RefCell;
        use std::rc::Rc;

        struct RelaySink {
            log: Rc<RefCell<crate::testutil::SinkLog>>,
        }
        impl cavenet_net::Application for RelaySink {
            fn handle_packet(&mut self, api: &mut NodeApi<'_>, packet: &Packet) {
                if let Some(d) = packet.body.as_data() {
                    self.log.borrow_mut().received.push((d.seq, api.now()));
                }
            }
        }

        let log4 = Rc::new(RefCell::new(crate::testutil::SinkLog::default()));
        let log0 = Rc::new(RefCell::new(crate::testutil::SinkLog::default()));
        // Node 0 sources flow 1 AND sinks flow 2 — combine in one app.
        struct SourceAndSink {
            src: crate::testutil::TestSource,
            log: Rc<RefCell<crate::testutil::SinkLog>>,
        }
        impl cavenet_net::Application for SourceAndSink {
            fn start(&mut self, api: &mut NodeApi<'_>) {
                self.src.start(api);
            }
            fn handle_timer(&mut self, api: &mut NodeApi<'_>, token: u64) {
                self.src.handle_timer(api, token);
            }
            fn handle_packet(&mut self, api: &mut NodeApi<'_>, packet: &Packet) {
                if let Some(d) = packet.body.as_data() {
                    self.log.borrow_mut().received.push((d.seq, api.now()));
                }
            }
        }

        let mut flow2 = crate::testutil::TestSource::new(NodeId(0), 3);
        flow2.start_delay = Duration::from_secs(6);
        let mut sim = Simulator::builder(ScenarioConfig::default())
            .nodes(5)
            .seed(7)
            .mobility(Box::new(StaticMobility::line(5, 200.0)))
            .routing_with(|_| Box::new(Dymo::new()))
            .app(
                0,
                Box::new(SourceAndSink {
                    src: crate::testutil::TestSource::new(NodeId(4), 5),
                    log: Rc::clone(&log0),
                }),
            )
            .app(2, Box::new(flow2))
            .app(
                4,
                Box::new(RelaySink {
                    log: Rc::clone(&log4),
                }),
            )
            .build();
        sim.run_until_secs(15.0);
        assert!(log4.borrow().received.len() >= 4, "flow 1 delivered");
        let log0 = log0.borrow();
        assert!(log0.received.len() >= 2, "flow 2 delivered");
        // Flow 2 starts at 6 s; with a pre-learned route the first packet
        // should arrive within ~50 ms (no 1 s discovery round-trip wait).
        let (_, first_at) = log0.received[0];
        let latency = first_at.as_secs_f64() - 6.0;
        assert!(
            latency < 0.5,
            "path accumulation should avoid rediscovery, latency {latency}"
        );
    }

    #[test]
    fn concurrent_discoveries_are_pinned() {
        // Node 0 of a 7-node line discovers six destinations at once. A
        // reply's accumulated path satisfies discoveries whose own replies
        // are still out, and DYMO flushes those at once.
        let run = crate::testutil::spray_run(7, |_| Box::new(Dymo::new()), 4, 15.0);
        let pinned = crate::testutil::SprayRun {
            states: [(0x8ee6_f18d_50af_8e26, 534), (0xbb30_5c13_2b08_485d, 234)],
            digest: (0x5173_fb66_6cd6_486d, 2482),
            discoveries: [6, 0, 6, 0],
        };
        assert_eq!(run, pinned);
    }

    #[test]
    fn default_config_matches_table1() {
        assert_eq!(DymoConfig::default().hello_interval, Duration::from_secs(1));
    }

    #[test]
    fn routes_expire_after_their_lifetime() {
        // 5 packets sent between 0.5 s and 1.3 s keep the 2-hop route in
        // use until ~1.3 s; with route_timeout = 5 s the entry must still
        // be usable at 4 s and gone (expired) well after 6.3 s. Hellos only
        // refresh direct-neighbour routes, not the multi-hop one.
        assert_eq!(DymoConfig::default().route_timeout, Duration::from_secs(5));
        let (log, mut sim) = run_line(3, 200.0, |_| Box::new(Dymo::new()), 0, 2, 5, 4.0, 6);
        assert_eq!(log.borrow().received.len(), 5);
        let lookup_at_src = |sim: &cavenet_net::Simulator| {
            sim.routing(0)
                .expect("routing attached")
                .as_any()
                .expect("DYMO opts into downcasting")
                .downcast_ref::<Dymo>()
                .expect("protocol is DYMO")
                .table()
                .lookup(NodeId(2), sim.now())
                .copied()
        };
        assert!(
            lookup_at_src(&sim).is_some(),
            "route must still be alive within its 5 s lifetime"
        );
        sim.run_until_secs(12.0);
        assert!(
            lookup_at_src(&sim).is_none(),
            "route must have expired 5 s after its last use"
        );
    }
}
