//! Ad-hoc On-demand Distance Vector routing (RFC 3561).
//!
//! AODV is reactive: routes are discovered only when needed, by flooding a
//! Route Request (RREQ) and unicasting a Route Reply (RREP) back along the
//! reverse path. Loop freedom comes from per-destination sequence numbers.
//! Link breakage — detected by HELLO silence or MAC transmission failure —
//! triggers Route Errors (RERR) that invalidate affected routes upstream
//! (paper §III-B-2).
//!
//! What AODV shares with DYMO — the discovery buffer and its tick,
//! neighbour liveness, the duplicate cache, RERRs, HELLOs, telemetry and
//! the checkpoint state — is the on-demand core (`on_demand.rs`). This
//! module keeps what is AODV's own: RREQ and RREP, the expanding-ring
//! search and its exponential retry backoff, learning a neighbour's
//! sequence number from its HELLO, and refreshing the route back to a
//! forwarded packet's source.

use std::sync::Arc;
use std::time::Duration;

use cavenet_net::snapshot::{read_duration, read_node_id, write_duration, write_node_id};
use cavenet_net::{
    ControlBlob, ControlCodec, NodeApi, NodeId, Packet, RoutingProtocol, RoutingTelemetry,
    WireError, WireReader, WireWriter,
};

use crate::on_demand::{CoreConfig, Discovery, Hello, OnDemand, SharedTags};
use crate::table::{seq_newer, RouteEntry, RouteTable};

/// AODV tunables (RFC 3561 §10 defaults, with the paper's 1 s HELLO
/// interval from Table 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AodvConfig {
    /// HELLO broadcast interval (Table 1: 1 s).
    pub hello_interval: Duration,
    /// Missed HELLOs before a neighbour is declared lost.
    pub allowed_hello_loss: u32,
    /// Lifetime granted to routes used or created by data traffic.
    pub active_route_timeout: Duration,
    /// How long a route-discovery attempt waits before retrying.
    pub discovery_timeout: Duration,
    /// Maximum RREQ retries per discovery (RREQ_RETRIES).
    pub max_discovery_retries: u32,
    /// RREQ flood TTL.
    pub net_diameter: u8,
    /// How long buffered data waits for a route before being dropped.
    pub max_queue_time: Duration,
    /// Use the expanding-ring search (RFC 3561 §6.4): probe with growing
    /// TTLs before flooding the whole network. Off by default — the
    /// simplified full-flood discovery is easier to reason about and is
    /// what the committed reference numbers use.
    pub expanding_ring: bool,
    /// Conservative per-hop traversal estimate (NODE_TRAVERSAL_TIME) used
    /// to size ring-search timeouts.
    pub node_traversal_time: Duration,
    /// First ring TTL (TTL_START).
    pub ttl_start: u8,
    /// Ring TTL growth per attempt (TTL_INCREMENT).
    pub ttl_increment: u8,
    /// Beyond this TTL the search jumps to `net_diameter` (TTL_THRESHOLD).
    pub ttl_threshold: u8,
}

impl Default for AodvConfig {
    fn default() -> Self {
        AodvConfig {
            hello_interval: Duration::from_secs(1),
            allowed_hello_loss: 2,
            active_route_timeout: Duration::from_secs(3),
            discovery_timeout: Duration::from_millis(1500),
            max_discovery_retries: 2,
            net_diameter: 35,
            max_queue_time: Duration::from_secs(10),
            expanding_ring: false,
            node_traversal_time: Duration::from_millis(40),
            ttl_start: 1,
            ttl_increment: 2,
            ttl_threshold: 7,
        }
    }
}

impl AodvConfig {
    /// RING_TRAVERSAL_TIME for a search of radius `ttl`
    /// (RFC 3561: `2 · NODE_TRAVERSAL_TIME · (TTL + TIMEOUT_BUFFER)` with
    /// TIMEOUT_BUFFER = 2).
    fn ring_traversal_time(&self, ttl: u8) -> Duration {
        self.node_traversal_time * 2 * (u32::from(ttl) + 2)
    }

    /// Initial search radius for a fresh discovery.
    fn initial_ttl(&self) -> u8 {
        if self.expanding_ring {
            self.ttl_start
        } else {
            self.net_diameter
        }
    }

    /// Timeout for a search at the given radius.
    fn discovery_wait(&self, ttl: u8) -> Duration {
        if self.expanding_ring {
            self.ring_traversal_time(ttl)
        } else {
            self.discovery_timeout
        }
    }

    /// The retry rule for a discovery whose attempt timed out: the wait of
    /// its next attempt, or `None` to give up.
    fn next_attempt(&self, p: &mut Discovery) -> Option<Duration> {
        if self.expanding_ring && p.ttl < self.net_diameter {
            // Widen the ring; failures below full radius do not count
            // against RREQ_RETRIES (RFC 3561 §6.4). A zero increment must
            // still make progress, or an unreachable destination would be
            // probed forever without ever consuming RREQ_RETRIES.
            p.ttl = if p.ttl >= self.ttl_threshold {
                self.net_diameter
            } else {
                p.ttl.saturating_add(self.ttl_increment.max(1))
            };
            return Some(self.ring_traversal_time(p.ttl));
        }
        p.retries += 1;
        // Binary exponential backoff on the wait.
        (p.retries <= self.max_discovery_retries)
            .then(|| self.discovery_wait(p.ttl) * 2u32.pow(p.retries.min(4)))
    }
}

/// Route Request (wire size ≈ 24 bytes).
#[derive(Debug, Clone)]
struct Rreq {
    rreq_id: u32,
    dst: NodeId,
    dst_seq: Option<u32>,
    origin: NodeId,
    origin_seq: u32,
    hop_count: u32,
}

/// Route Reply (wire size ≈ 20 bytes).
#[derive(Debug, Clone)]
struct Rrep {
    dst: NodeId,
    dst_seq: u32,
    origin: NodeId,
    hop_count: u32,
    lifetime: Duration,
}

const RREQ_SIZE: u32 = 24;
const RREP_SIZE: u32 = 20;
/// HELLO wire size (RFC: a TTL-1 RREP).
const HELLO_SIZE: u32 = 20;

/// The AODV routing protocol state for one node.
#[derive(Debug)]
pub struct Aodv {
    config: AodvConfig,
    core: OnDemand,
}

impl Default for Aodv {
    fn default() -> Self {
        Self::new()
    }
}

impl Aodv {
    /// AODV with default configuration.
    pub fn new() -> Self {
        Self::with_config(AodvConfig::default())
    }

    /// AODV with explicit configuration.
    pub fn with_config(config: AodvConfig) -> Self {
        let core = OnDemand::new(CoreConfig {
            hello_interval: config.hello_interval,
            allowed_hello_loss: config.allowed_hello_loss,
            route_timeout: config.active_route_timeout,
            max_queue_time: config.max_queue_time,
            hello_size: HELLO_SIZE,
            ttl_in_state: true,
        });
        Aodv { config, core }
    }

    /// Read access to the routing table (for inspection and tests).
    pub fn table(&self) -> &RouteTable {
        &self.core.table
    }

    fn handle_rreq(&mut self, api: &mut NodeApi<'_>, packet: &Packet, rreq: &Rreq, from: NodeId) {
        let now = api.now();
        if self.core.seen_before(rreq.origin, rreq.rreq_id, now) {
            return;
        }
        self.core.touch_neighbour(api, from, None);
        // Reverse route to the originator through `from`.
        let hops = rreq.hop_count + 1;
        self.core.table.offer(
            rreq.origin,
            RouteEntry {
                next_hop: from,
                hop_count: hops,
                seqno: rreq.origin_seq,
                expires: now + self.config.active_route_timeout,
                valid: true,
            },
            now,
        );

        if rreq.dst == api.id() {
            // RFC 3561 §6.6.1: destination sets its seq to max(own, RREQ's).
            let core = &mut self.core;
            if let Some(ds) = rreq.dst_seq {
                if seq_newer(ds, core.seqno) {
                    core.seqno = ds;
                }
            }
            core.seqno = core.seqno.wrapping_add(1);
            let rrep = Rrep {
                dst: api.id(),
                dst_seq: core.seqno,
                origin: rreq.origin,
                hop_count: 0,
                lifetime: self.config.active_route_timeout,
            };
            let reply = Packet::control(api.id(), rreq.origin, RREP_SIZE, rrep);
            api.send(reply, from);
            return;
        }

        // Intermediate node with a fresh-enough valid route replies itself.
        if let Some(route) = self.core.table.lookup(rreq.dst, now) {
            let fresh_enough = rreq
                .dst_seq
                .is_none_or(|want| !seq_newer(want, route.seqno));
            if fresh_enough {
                let rrep = Rrep {
                    dst: rreq.dst,
                    dst_seq: route.seqno,
                    origin: rreq.origin,
                    hop_count: route.hop_count,
                    lifetime: self.config.active_route_timeout,
                };
                let reply = Packet::control(api.id(), rreq.origin, RREP_SIZE, rrep);
                api.send(reply, from);
                return;
            }
        }

        // Otherwise re-flood.
        if packet.ttl <= 1 {
            return;
        }
        let fwd = Rreq {
            hop_count: hops,
            ..rreq.clone()
        };
        let mut fwd_packet = Packet::control(rreq.origin, NodeId::BROADCAST, RREQ_SIZE, fwd);
        fwd_packet.ttl = packet.ttl - 1;
        api.send(fwd_packet, NodeId::BROADCAST);
    }

    fn handle_rrep(&mut self, api: &mut NodeApi<'_>, rrep: &Rrep, from: NodeId) {
        let now = api.now();
        self.core.touch_neighbour(api, from, None);
        // Forward route to the destination through `from`.
        let hops = rrep.hop_count + 1;
        self.core.table.offer(
            rrep.dst,
            RouteEntry {
                next_hop: from,
                hop_count: hops,
                seqno: rrep.dst_seq,
                expires: now + rrep.lifetime,
                valid: true,
            },
            now,
        );

        if rrep.origin == api.id() {
            self.core.complete_discovery(api, rrep.dst);
            return;
        }
        // Forward the RREP along the reverse route.
        if let Some(rev) = self.core.table.lookup(rrep.origin, now) {
            let nh = rev.next_hop;
            let fwd = Rrep {
                hop_count: hops,
                ..rrep.clone()
            };
            let fwd_packet = Packet::control(api.id(), rrep.origin, RREP_SIZE, fwd);
            api.send(fwd_packet, nh);
        }
    }
}

/// Flood a RREQ for `dst` with radius `ttl`, under a fresh RREQ id and the
/// node's current sequence number.
fn send_rreq(core: &mut OnDemand, api: &mut NodeApi<'_>, dst: NodeId, ttl: u8) {
    let rreq = Rreq {
        rreq_id: core.new_request_id(api),
        dst,
        dst_seq: core.table.get(dst).map(|r| r.seqno),
        origin: api.id(),
        origin_seq: core.seqno,
        hop_count: 0,
    };
    let mut packet = Packet::control(api.id(), NodeId::BROADCAST, RREQ_SIZE, rreq);
    packet.ttl = ttl;
    api.send(packet, NodeId::BROADCAST);
}

/// Serializer for AODV's in-flight control payloads (RREQ, RREP, RERR,
/// HELLO). Tag bytes are part of the checkpoint format and fixed forever.
#[derive(Debug, Clone, Copy, Default)]
pub struct AodvCodec;

const CTRL_RREQ: u8 = 1;
const CTRL_RREP: u8 = 2;
const TAGS: SharedTags = SharedTags {
    rerr: 3,
    hello: 4,
    foreign: "non-AODV control payload",
    unknown: "aodv control tag",
};

impl ControlCodec for AodvCodec {
    fn encode(&self, blob: &ControlBlob, w: &mut WireWriter) -> Result<(), WireError> {
        if let Some(m) = blob.downcast_ref::<Rreq>() {
            w.put_u8(CTRL_RREQ);
            w.put_u32(m.rreq_id);
            write_node_id(w, m.dst);
            match m.dst_seq {
                None => w.put_bool(false),
                Some(s) => {
                    w.put_bool(true);
                    w.put_u32(s);
                }
            }
            write_node_id(w, m.origin);
            w.put_u32(m.origin_seq);
            w.put_u32(m.hop_count);
        } else if let Some(m) = blob.downcast_ref::<Rrep>() {
            w.put_u8(CTRL_RREP);
            write_node_id(w, m.dst);
            w.put_u32(m.dst_seq);
            write_node_id(w, m.origin);
            w.put_u32(m.hop_count);
            write_duration(w, m.lifetime);
        } else {
            return TAGS.encode(blob, w);
        }
        Ok(())
    }

    fn decode(&self, r: &mut WireReader<'_>) -> Result<ControlBlob, WireError> {
        Ok(match r.get_u8()? {
            CTRL_RREQ => Arc::new(Rreq {
                rreq_id: r.get_u32()?,
                dst: read_node_id(r)?,
                dst_seq: if r.get_bool()? {
                    Some(r.get_u32()?)
                } else {
                    None
                },
                origin: read_node_id(r)?,
                origin_seq: r.get_u32()?,
                hop_count: r.get_u32()?,
            }),
            CTRL_RREP => Arc::new(Rrep {
                dst: read_node_id(r)?,
                dst_seq: r.get_u32()?,
                origin: read_node_id(r)?,
                hop_count: r.get_u32()?,
                lifetime: read_duration(r)?,
            }),
            tag => return TAGS.decode(tag, r),
        })
    }
}

impl RoutingProtocol for Aodv {
    fn name(&self) -> &'static str {
        "aodv"
    }

    fn start(&mut self, api: &mut NodeApi<'_>) {
        self.core.start(api);
    }

    fn route_output(&mut self, api: &mut NodeApi<'_>, packet: Packet) {
        let ttl = self.config.initial_ttl();
        let wait = self.config.discovery_wait(ttl);
        if let Some(dst) = self.core.route_output(api, packet, ttl, wait) {
            // A new discovery claims a new sequence number; its retries
            // reuse it.
            self.core.seqno = self.core.seqno.wrapping_add(1);
            send_rreq(&mut self.core, api, dst, ttl);
        }
    }

    fn handle_received(&mut self, api: &mut NodeApi<'_>, packet: Packet, from: NodeId) {
        if let Some(rreq) = packet.body.as_control::<Rreq>() {
            let rreq = rreq.clone();
            self.handle_rreq(api, &packet, &rreq, from);
            return;
        }
        if let Some(rrep) = packet.body.as_control::<Rrep>() {
            let rrep = rrep.clone();
            self.handle_rrep(api, &rrep, from);
            return;
        }
        if let Some(hello) = packet.body.as_control::<Hello>() {
            // A HELLO carries its sender's sequence number.
            let seq = hello.seq;
            self.core.touch_neighbour(api, from, Some(seq));
            return;
        }
        if let Some(packet) = self.core.receive(api, packet, from) {
            // Keep the route to the source fresh too (RFC 3561 §6.2).
            if packet.src != api.id() {
                let lifetime = api.now() + self.config.active_route_timeout;
                self.core.table.refresh(packet.src, lifetime);
            }
            self.core.forward_data(api, packet);
        }
    }

    fn handle_timer(&mut self, api: &mut NodeApi<'_>, token: u64) {
        let config = self.config;
        self.core
            .handle_timer(api, token, |p| config.next_attempt(p), send_rreq);
    }

    fn tx_failed(&mut self, api: &mut NodeApi<'_>, packet: Packet, next_hop: NodeId) {
        // If we originated the packet, try to rediscover rather than lose it.
        if let Some(packet) = self.core.tx_failed(api, packet, next_hop) {
            self.route_output(api, packet);
        }
    }

    fn on_crash(&mut self, api: &mut NodeApi<'_>) {
        self.core.on_crash(api);
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
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
        Some(Box::new(AodvCodec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::on_demand::Rerr;
    use crate::testutil::{run_line, run_ring};

    #[test]
    fn name() {
        assert_eq!(Aodv::new().name(), "aodv");
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        crate::testutil::assert_snapshot_round_trip(4, |_| Box::new(Aodv::new()), 8.0, 7);
    }

    #[test]
    fn codec_round_trips_every_control_message() {
        let codec = AodvCodec;
        let blobs: Vec<ControlBlob> = vec![
            std::sync::Arc::new(Rreq {
                rreq_id: 7,
                dst: NodeId(3),
                dst_seq: Some(9),
                origin: NodeId(1),
                origin_seq: 4,
                hop_count: 2,
            }),
            std::sync::Arc::new(Rreq {
                rreq_id: 8,
                dst: NodeId(3),
                dst_seq: None,
                origin: NodeId(1),
                origin_seq: 4,
                hop_count: 0,
            }),
            std::sync::Arc::new(Rrep {
                dst: NodeId(3),
                dst_seq: 10,
                origin: NodeId(1),
                hop_count: 2,
                lifetime: Duration::from_secs(3),
            }),
            std::sync::Arc::new(Rerr {
                unreachable: vec![(NodeId(5), 11), (NodeId(6), 12)],
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
    fn codec_rejects_foreign_payload_and_bad_tag() {
        let codec = AodvCodec;
        let foreign: ControlBlob = std::sync::Arc::new(42u32);
        assert!(matches!(
            codec.encode(&foreign, &mut WireWriter::new()),
            Err(WireError::Malformed { .. })
        ));
        let mut r = WireReader::new(&[0xEE]);
        assert!(matches!(
            codec.decode(&mut r),
            Err(WireError::Malformed {
                what: "aodv control tag",
                ..
            })
        ));
    }

    #[test]
    fn codec_refuses_counts_the_payload_cannot_hold() {
        crate::testutil::assert_refuses_huge_counts(&[TAGS.rerr], |r| AodvCodec.decode(r));
    }

    #[test]
    fn single_hop_delivery() {
        let (log, sim) = run_line(2, 200.0, |_| Box::new(Aodv::new()), 0, 1, 10, 10.0, 1);
        assert_eq!(log.borrow().received.len(), 10);
        // Control traffic was exchanged (hellos + discovery).
        assert!(sim.node_stats(0).control_sent > 0);
    }

    #[test]
    fn multi_hop_discovery_and_delivery() {
        // 5 nodes at 200 m: 0 → 4 needs 4 hops.
        let (log, _sim) = run_line(5, 200.0, |_| Box::new(Aodv::new()), 0, 4, 10, 15.0, 2);
        let got = log.borrow().received.len();
        assert!(
            got >= 9,
            "AODV should deliver nearly all packets, got {got}/10"
        );
    }

    #[test]
    fn delivery_on_ring_topology() {
        // Paper-like: 30 nodes on a 3000 m circuit; sender 5 → receiver 0.
        let (log, _sim) = run_ring(30, 3000.0, |_| Box::new(Aodv::new()), 5, 0, 10, 20.0, 3);
        let got = log.borrow().received.len();
        assert!(got >= 8, "ring delivery too low: {got}/10");
    }

    #[test]
    fn unreachable_destination_is_dropped_after_retries() {
        // Two partitions: nodes 0-1 at x=0,200; node 2 at x=5000.
        let mobility =
            cavenet_net::StaticMobility::new(vec![(0.0, 0.0), (200.0, 0.0), (5000.0, 0.0)]);
        let (log, _sim) = crate::testutil::run_with_mobility(
            mobility,
            3,
            |_| Box::new(Aodv::new()),
            0,
            2,
            5,
            15.0,
            4,
        );
        assert_eq!(log.borrow().received.len(), 0);
    }

    #[test]
    fn first_packet_latency_includes_discovery() {
        let (log, _sim) = run_line(4, 200.0, |_| Box::new(Aodv::new()), 0, 3, 5, 15.0, 5);
        let log = log.borrow();
        assert!(!log.received.is_empty());
        let (first_seq, first_at) = log.received[0];
        assert_eq!(first_seq, 0);
        // Source starts at 0.5 s; discovery adds latency but below a second
        // on a quiet 3-hop chain.
        let latency = first_at.as_secs_f64() - 0.5;
        assert!(
            latency > 0.0005,
            "discovery latency expected, got {latency}"
        );
        assert!(
            latency < 2.0,
            "discovery should finish quickly, got {latency}"
        );
    }

    #[test]
    fn routes_have_correct_hop_counts() {
        use cavenet_net::{ScenarioConfig, Simulator, StaticMobility};
        use std::cell::RefCell;
        use std::rc::Rc;

        // Capture the AODV instance state via a shared handle is not
        // possible post-build; instead verify behaviourally: node 0 learns a
        // route to node 2 (2 hops) only after traffic, never before.
        let log = Rc::new(RefCell::new(crate::testutil::SinkLog::default()));
        let mut sim = Simulator::builder(ScenarioConfig::default())
            .nodes(3)
            .seed(6)
            .mobility(Box::new(StaticMobility::line(3, 200.0)))
            .routing_with(|_| Box::new(Aodv::new()))
            .app(0, Box::new(crate::testutil::TestSource::new(NodeId(2), 3)))
            .app(
                2,
                Box::new(crate::testutil::TestSink {
                    log: Rc::clone(&log),
                }),
            )
            .build();
        sim.run_until_secs(10.0);
        assert_eq!(log.borrow().received.len(), 3);
        // The middle node forwarded them.
        assert_eq!(sim.node_stats(1).data_forwarded, 3);
    }

    #[test]
    fn hello_messages_flow_periodically() {
        let (_, sim) = run_line(2, 100.0, |_| Box::new(Aodv::new()), 0, 1, 0, 10.0, 7);
        // ≈10 s of hellos at 1/s from each node.
        let ctrl = sim.node_stats(0).control_sent;
        assert!((8..=20).contains(&ctrl), "expected ≈10 hellos, got {ctrl}");
    }

    #[test]
    fn concurrent_discoveries_are_pinned() {
        // Node 0 of a 7-node line discovers six destinations at once, and
        // two of them time out and retry: the retries keep their
        // destination order and their TTL, and reuse the sequence number.
        let run = crate::testutil::spray_run(7, |_| Box::new(Aodv::new()), 4, 15.0);
        let pinned = crate::testutil::SprayRun {
            states: [(0x687d_87d1_a356_9b90, 538), (0x7671_32ba_54aa_18f6, 159)],
            digest: (0x61f4_cce6_f46f_d3aa, 2545),
            discoveries: [6, 2, 6, 0],
        };
        assert_eq!(run, pinned);
    }

    #[test]
    fn default_config_matches_table1() {
        let c = AodvConfig::default();
        assert_eq!(c.hello_interval, Duration::from_secs(1));
    }
}

#[cfg(test)]
mod ring_search_tests {
    use super::*;
    use crate::testutil::run_line;
    use cavenet_net::SimTime;

    fn ring_aodv() -> Aodv {
        Aodv::with_config(AodvConfig {
            expanding_ring: true,
            ..AodvConfig::default()
        })
    }

    #[test]
    fn expanding_ring_still_delivers_multi_hop() {
        let (log, _) = run_line(5, 200.0, |_| Box::new(ring_aodv()), 0, 4, 10, 20.0, 2);
        let got = log.borrow().received.len();
        assert!(got >= 9, "ring search should deliver, got {got}/10");
    }

    #[test]
    fn expanding_ring_reduces_rreq_overhead_for_near_destinations() {
        // Destination one hop away: the TTL-1 probe suffices, so distant
        // nodes never see (or re-flood) the RREQ. Compare third-node
        // control forwarding between the two modes on a 5-node chain where
        // only nodes 0 and 1 talk.
        let (_, ring_sim) = run_line(5, 200.0, |_| Box::new(ring_aodv()), 0, 1, 5, 10.0, 3);
        let (_, flood_sim) = run_line(5, 200.0, |_| Box::new(Aodv::new()), 0, 1, 5, 10.0, 3);
        // Count control packets sent by the FAR nodes (3, 4) — hello traffic
        // is identical, so any extra is RREQ re-flooding.
        let far_ring: u64 = (3..5).map(|i| ring_sim.node_stats(i).control_sent).sum();
        let far_flood: u64 = (3..5).map(|i| flood_sim.node_stats(i).control_sent).sum();
        assert!(
            far_ring <= far_flood,
            "ring search should not increase far-node control traffic: {far_ring} vs {far_flood}"
        );
    }

    #[test]
    fn expanding_ring_widens_until_distant_destination_found() {
        // 4 hops away: needs several ring expansions but must still succeed.
        let (log, _) = run_line(5, 200.0, |_| Box::new(ring_aodv()), 0, 4, 3, 20.0, 4);
        assert!(!log.borrow().received.is_empty());
    }

    /// One ring-search run: the finished event-stream digest, every node's
    /// control packets sent and data packets dropped, and the sink's
    /// receive times in nanoseconds.
    type RingRun = ((u64, u64), Vec<(u64, u64)>, Vec<u64>);

    fn pinned_ring_run(positions: Vec<(f64, f64)>, dst: usize, secs: f64, seed: u64) -> RingRun {
        use crate::testutil::{SinkLog, TestSink, TestSource};
        use cavenet_net::{GoldenDigest, ScenarioConfig, Simulator, StaticMobility};

        let n = positions.len();
        let log = std::rc::Rc::new(std::cell::RefCell::new(SinkLog::default()));
        let mut sim = Simulator::builder(ScenarioConfig::default())
            .nodes(n)
            .seed(seed)
            .mobility(Box::new(StaticMobility::new(positions)))
            .observer(GoldenDigest::new())
            .routing_with(|_| Box::new(ring_aodv()))
            .app(0, Box::new(TestSource::new(NodeId(dst as u32), 10)))
            .app(
                dst,
                Box::new(TestSink {
                    log: std::rc::Rc::clone(&log),
                }),
            )
            .build();
        sim.run_until_secs(secs);
        let digest = sim.observer().finalize(&sim);
        let control = (0..n)
            .map(|i| {
                let stats = sim.node_stats(i);
                (stats.control_sent, stats.data_dropped)
            })
            .collect();
        let times = log
            .borrow()
            .received
            .iter()
            .map(|&(_, at)| at.as_nanos())
            .collect();
        (digest, control, times)
    }

    #[test]
    fn expanding_ring_runs_are_pinned() {
        // Ring search is off by default, so no golden digest reaches it.
        // A 4-hop line: the ring widens until the RREQ reaches the sink.
        let line: Vec<(f64, f64)> = (0..5).map(|i| (i as f64 * 200.0, 0.0)).collect();
        let (digest, control, times) = pinned_ring_run(line, 4, 20.0, 2);
        assert_eq!(digest, (0x57a5_9fce_f8f8_6514, 2213));
        assert_eq!(control, [(22, 0), (22, 0), (22, 0), (21, 0), (20, 0)]);
        assert_eq!(
            times,
            [
                947_485_338,
                956_242_006,
                962_176_674,
                1_112_692_668,
                1_311_472_668,
                1_512_312_668,
                1_712_192_668,
                1_912_092_668,
                2_112_172_668,
                2_311_732_668,
            ]
        );
        // A partitioned destination: the search reaches full radius, backs
        // off exponentially, gives up and drops all ten buffered packets.
        let split = vec![(0.0, 0.0), (200.0, 0.0), (400.0, 0.0), (5000.0, 0.0)];
        let (digest, control, times) = pinned_ring_run(split, 3, 30.0, 4);
        assert_eq!(digest, (0xdfbb_a34c_e2f1_b472, 1452));
        assert_eq!(control, [(37, 10), (36, 0), (36, 0), (30, 0)]);
        assert!(times.is_empty());
    }

    #[test]
    fn ring_traversal_time_grows_with_ttl() {
        let c = AodvConfig::default();
        assert!(c.ring_traversal_time(1) < c.ring_traversal_time(7));
        assert_eq!(c.ring_traversal_time(1), Duration::from_millis(240));
    }

    /// A 0-1-2-3 line (200 m spacing) whose far end (node 3) teleports out
    /// of range during `[gone_from, back_at)`.
    struct VanishingTail {
        gone_from: SimTime,
        back_at: SimTime,
    }

    impl cavenet_net::MobilityModel for VanishingTail {
        fn position(&self, index: usize, t: SimTime) -> (f64, f64) {
            if index == 3 && t >= self.gone_from && t < self.back_at {
                (1.0e6, 1.0e6)
            } else {
                (index as f64 * 200.0, 0.0)
            }
        }

        fn node_count(&self) -> usize {
            4
        }
    }

    fn vanishing_tail_sim(
        until_secs: f64,
    ) -> (
        std::rc::Rc<std::cell::RefCell<crate::testutil::SinkLog>>,
        cavenet_net::Simulator,
    ) {
        use crate::testutil::{SinkLog, TestSink, TestSource};
        use cavenet_net::{ScenarioConfig, Simulator};

        // Routes live 120 s, so within a 16 s run only a propagated RERR
        // can explain an invalidated entry at the source.
        let cfg = AodvConfig {
            active_route_timeout: Duration::from_secs(120),
            ..AodvConfig::default()
        };
        let log = std::rc::Rc::new(std::cell::RefCell::new(SinkLog::default()));
        let mut sim = Simulator::builder(ScenarioConfig::default())
            .nodes(4)
            .seed(1)
            .mobility(Box::new(VanishingTail {
                gone_from: SimTime::from_secs(4),
                back_at: SimTime::from_secs(10),
            }))
            .routing_with(move |_| Box::new(Aodv::with_config(cfg)))
            .app(0, Box::new(TestSource::new(NodeId(3), 100)))
            .app(
                3,
                Box::new(TestSink {
                    log: std::rc::Rc::clone(&log),
                }),
            )
            .build();
        sim.run_until_secs(until_secs);
        (log, sim)
    }

    fn aodv_of(sim: &cavenet_net::Simulator, node: usize) -> &Aodv {
        sim.routing(node)
            .expect("routing attached")
            .as_any()
            .expect("AODV opts into downcasting")
            .downcast_ref::<Aodv>()
            .expect("protocol is AODV")
    }

    #[test]
    fn rerr_propagates_upstream_and_invalidates_the_source_route() {
        // Node 3 vanishes at 4 s. Node 2's MAC failure raises a RERR that
        // must travel 2 -> 1 -> 0; by 8 s the *source* must hold an
        // invalidated (not expired) entry with a bumped sequence number.
        let (log, sim) = vanishing_tail_sim(8.0);
        let delivered = log.borrow().received.len();
        assert!(
            delivered >= 10,
            "3-hop route must work before the break, got {delivered}"
        );
        let entry = *aodv_of(&sim, 0)
            .table()
            .get(NodeId(3))
            .expect("entry retained for its sequence number");
        assert!(!entry.valid, "RERR did not reach the source: {entry:?}");
        assert!(
            entry.expires > sim.now(),
            "route must be invalid by RERR, not by expiry: {entry:?}"
        );
    }

    #[test]
    fn rediscovery_after_rerr_requires_fresher_sequence_number() {
        // Continue past the break: node 3 returns at 10 s. The new RREQ
        // carries the bumped sequence number as its freshness requirement,
        // so the rediscovered route must be strictly fresher than the
        // invalidated one (RFC 3561 destination-sequence rules).
        let (log, mut sim) = vanishing_tail_sim(8.0);
        let before = log.borrow().received.len();
        let bumped = aodv_of(&sim, 0)
            .table()
            .get(NodeId(3))
            .expect("invalidated entry")
            .seqno;
        sim.run_until_secs(16.0);
        let after = log.borrow().received.len();
        assert!(
            after > before,
            "deliveries must resume after the destination returns ({before} -> {after})"
        );
        let entry = *aodv_of(&sim, 0)
            .table()
            .get(NodeId(3))
            .expect("route rediscovered");
        assert!(
            entry.is_usable(sim.now()),
            "route must be usable: {entry:?}"
        );
        assert!(
            seq_newer(entry.seqno, bumped),
            "rediscovered seqno {} must be strictly newer than the RERR bump {bumped}",
            entry.seqno
        );
    }

    /// A 0-1-2-3 line whose only relay towards the source (node 1) crashes
    /// at 3 s and recovers at 8 s via the fault-injection subsystem.
    fn crashed_relay_sim(
        until_secs: f64,
    ) -> (
        std::rc::Rc<std::cell::RefCell<crate::testutil::SinkLog>>,
        cavenet_net::Simulator,
    ) {
        use crate::testutil::{SinkLog, TestSink, TestSource};
        use cavenet_net::{FaultPlan, ScenarioConfig, Simulator, StaticMobility};

        // Long route lifetime: only a RERR can explain invalidation.
        let cfg = AodvConfig {
            active_route_timeout: Duration::from_secs(120),
            ..AodvConfig::default()
        };
        let log = std::rc::Rc::new(std::cell::RefCell::new(SinkLog::default()));
        let mut sim = Simulator::builder(ScenarioConfig::default())
            .nodes(4)
            .seed(1)
            .mobility(Box::new(StaticMobility::line(4, 200.0)))
            .fault_plan(
                FaultPlan::new()
                    .crash(SimTime::from_secs(3), 1)
                    .recover(SimTime::from_secs(8), 1),
            )
            .routing_with(move |_| Box::new(Aodv::with_config(cfg)))
            .app(0, Box::new(TestSource::new(NodeId(3), 100)))
            .app(
                3,
                Box::new(TestSink {
                    log: std::rc::Rc::clone(&log),
                }),
            )
            .build();
        sim.run_until_secs(until_secs);
        (log, sim)
    }

    #[test]
    fn relay_crash_raises_rerr_at_the_source() {
        // Node 1 is node 0's only next hop towards 3. After the crash the
        // source's MAC retries fail, link_broken fires, and the RERR path
        // must leave an invalidated (not expired) entry at the source.
        let (log, sim) = crashed_relay_sim(7.0);
        let delivered = log.borrow().received.len();
        assert!(
            delivered >= 8,
            "route must work before the crash, got {delivered}"
        );
        assert!(
            log.borrow()
                .received
                .iter()
                .all(|&(_, at)| at < SimTime::from_secs(4)),
            "no deliveries while the only relay is down"
        );
        let entry = *aodv_of(&sim, 0)
            .table()
            .get(NodeId(3))
            .expect("entry retained for its sequence number");
        assert!(!entry.valid, "crash must invalidate via RERR: {entry:?}");
        assert!(
            entry.expires > sim.now(),
            "route must be invalid by RERR, not by expiry: {entry:?}"
        );
    }

    #[test]
    fn recovery_repairs_the_route_and_delivery_resumes() {
        // Continue past the recovery at 8 s: a fresh discovery through the
        // cold-started relay must re-establish the route end to end.
        let (log, mut sim) = crashed_relay_sim(7.0);
        let before = log.borrow().received.len();
        sim.run_until_secs(20.0);
        let after = log.borrow().received.len();
        assert!(
            after > before,
            "deliveries must resume after the relay recovers ({before} -> {after})"
        );
        assert!(
            log.borrow()
                .received
                .iter()
                .any(|&(_, at)| at > SimTime::from_secs(8)),
            "post-recovery deliveries must exist"
        );
        let entry = *aodv_of(&sim, 0)
            .table()
            .get(NodeId(3))
            .expect("route repaired");
        assert!(
            entry.is_usable(sim.now()),
            "route must be usable: {entry:?}"
        );
    }
}
