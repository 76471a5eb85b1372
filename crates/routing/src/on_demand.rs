//! The on-demand routing core that AODV and DYMO share (paper §III-B-2/3).
//!
//! Both protocols discover a route only when data needs one. They differ in
//! their route messages and retry rules (AODV's RREQ/RREP with an
//! expanding ring and exponential backoff, DYMO's path-accumulating route
//! messages with a linear retry), and AODV also learns sequence numbers
//! from HELLOs and refreshes the route back to a forwarded packet's source.
//! Everything else lives here once, in [`OnDemand`], which each protocol
//! owns and calls: the route table, the node's own sequence number and
//! request id, the 5 s duplicate cache, neighbour liveness, the
//! per-destination discovery buffer and its counters, data forwarding,
//! RERRs (broadcast, and re-broadcast by every node that loses a route
//! through the sender), the HELLO timer and the 250 ms tick, MAC failure,
//! crashes, telemetry, the checkpoint state and the RERR/HELLO wire bodies.
//!
//! The tick calls back into the protocol through two closures: the retry
//! rule for a due discovery and the RREQ it sends. Every step keeps the
//! order of its `NodeApi` calls, because sends, drops, schedules, route
//! events and RNG draws all feed the golden digest.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use cavenet_net::snapshot::{
    read_node_id, read_packet, read_time, write_node_id, write_packet, write_time,
};
use cavenet_net::{
    ControlBlob, DataOnlyCodec, DropReason, NodeApi, NodeId, Packet, RouteEventKind,
    RoutingTelemetry, SimTime, WireError, WireReader, WireWriter,
};

use crate::table::{RouteEntry, RouteTable};

const TOKEN_HELLO: u64 = 1;
const TOKEN_TICK: u64 = 2;
const TICK: Duration = Duration::from_millis(250);
/// How long a route request stays in the duplicate cache.
const SEEN_LIFETIME: Duration = Duration::from_secs(5);
/// How long an expired route is kept for its sequence number.
const PURGE_GRACE: Duration = Duration::from_secs(10);
/// Wire bytes of one `(destination, sequence number)` pair.
const PAIR_BYTES: usize = 8;

/// Route Error: destinations now unreachable through the sender, with their
/// bumped sequence numbers (wire size ≈ 4 + 8·n bytes).
#[derive(Debug, Clone)]
pub(crate) struct Rerr {
    pub(crate) unreachable: Vec<(NodeId, u32)>,
}

/// HELLO beacon carrying the sender's sequence number.
#[derive(Debug, Clone)]
pub(crate) struct Hello {
    pub(crate) seq: u32,
}

/// What a protocol's configuration sets in the core.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CoreConfig {
    /// HELLO broadcast interval.
    pub(crate) hello_interval: Duration,
    /// Missed HELLOs before a neighbour is declared lost.
    pub(crate) allowed_hello_loss: u32,
    /// Lifetime granted to a route when it is learned or used.
    pub(crate) route_timeout: Duration,
    /// How long buffered data waits for a route.
    pub(crate) max_queue_time: Duration,
    /// HELLO wire size in bytes.
    pub(crate) hello_size: u32,
    /// Whether each discovery's search radius is part of the checkpoint
    /// state (AODV's layout; DYMO's has none).
    pub(crate) ttl_in_state: bool,
}

/// One destination's route discovery: the data waiting for a route and
/// the current attempt.
#[derive(Debug)]
pub(crate) struct Discovery {
    /// Attempts that counted against the protocol's retry limit.
    pub(crate) retries: u32,
    /// When the current attempt times out.
    deadline: SimTime,
    /// AODV's RREQ TTL for the current attempt, which its expanding ring
    /// widens; 0 under DYMO, which floods every attempt at its hop limit.
    pub(crate) ttl: u8,
    queued: VecDeque<(Packet, SimTime)>,
}

/// The state and steps AODV and DYMO share, for one node.
#[derive(Debug)]
pub(crate) struct OnDemand {
    config: CoreConfig,
    pub(crate) table: RouteTable,
    /// The node's own sequence number.
    pub(crate) seqno: u32,
    /// Id of the node's latest route message (AODV's RREQ id, DYMO's
    /// message id).
    pub(crate) msg_id: u32,
    /// Duplicate cache: (origin, request id) → expiry.
    seen: HashMap<(NodeId, u32), SimTime>,
    /// Last time each neighbour was heard.
    neighbours: HashMap<NodeId, SimTime>,
    pending: HashMap<NodeId, Discovery>,
    /// Lifetime discovery counters reported through
    /// [`RoutingProtocol::telemetry`](cavenet_net::RoutingProtocol::telemetry);
    /// purely observational.
    started: u64,
    retried: u64,
    succeeded: u64,
    failed: u64,
}

impl OnDemand {
    pub(crate) fn new(config: CoreConfig) -> Self {
        OnDemand {
            config,
            table: RouteTable::new(),
            seqno: 0,
            msg_id: 0,
            seen: HashMap::new(),
            neighbours: HashMap::new(),
            pending: HashMap::new(),
            started: 0,
            retried: 0,
            succeeded: 0,
            failed: 0,
        }
    }

    /// Schedule the first HELLO and tick, sharing one jitter draw.
    pub(crate) fn start(&self, api: &mut NodeApi<'_>) {
        let jitter = Duration::from_millis(api.rng().gen_range(0..200));
        api.schedule(self.config.hello_interval / 2 + jitter, TOKEN_HELLO);
        api.schedule(TICK + jitter, TOKEN_TICK);
    }

    /// Note that we can hear `neighbour`: refresh its liveness and its
    /// 1-hop route, at sequence number `seq` if its HELLO gave one.
    pub(crate) fn touch_neighbour(
        &mut self,
        api: &mut NodeApi<'_>,
        neighbour: NodeId,
        seq: Option<u32>,
    ) {
        let now = api.now();
        self.neighbours.insert(neighbour, now);
        let expires = now + self.config.route_timeout;
        let entry = RouteEntry {
            next_hop: neighbour,
            hop_count: 1,
            seqno: seq.unwrap_or_else(|| self.table.get(neighbour).map_or(0, |r| r.seqno)),
            expires,
            valid: true,
        };
        self.table.offer(neighbour, entry, now);
        self.table.refresh(neighbour, expires);
    }

    /// Whether the request `(origin, id)` was already seen; a new one is
    /// remembered.
    pub(crate) fn seen_before(&mut self, origin: NodeId, id: u32, now: SimTime) -> bool {
        if self.seen.contains_key(&(origin, id)) {
            return true;
        }
        self.seen.insert((origin, id), now + SEEN_LIFETIME);
        false
    }

    /// A fresh id for a route request this node floods, remembered so the
    /// flood's echoes are ignored.
    pub(crate) fn new_request_id(&mut self, api: &NodeApi<'_>) -> u32 {
        self.msg_id = self.msg_id.wrapping_add(1);
        self.seen
            .insert((api.id(), self.msg_id), api.now() + SEEN_LIFETIME);
        self.msg_id
    }

    /// Send `packet` towards its destination, keeping the route and its
    /// next hop alive; without a route, drop it and raise a RERR.
    pub(crate) fn forward_data(&mut self, api: &mut NodeApi<'_>, packet: Packet) {
        let now = api.now();
        let dst = packet.dst;
        if let Some(route) = self.table.lookup(dst, now) {
            let nh = route.next_hop;
            let lifetime = now + self.config.route_timeout;
            self.table.refresh(dst, lifetime);
            self.table.refresh(nh, lifetime);
            api.send(packet, nh);
        } else {
            let seq = self.table.get(dst).map_or(0, |r| r.seqno);
            self.originate_rerr(api, vec![(dst, seq)]);
            api.drop_packet(packet, DropReason::NoRoute);
        }
    }

    fn originate_rerr(&mut self, api: &mut NodeApi<'_>, unreachable: Vec<(NodeId, u32)>) {
        if unreachable.is_empty() {
            return;
        }
        let size = 4 + 8 * unreachable.len() as u32;
        let packet = Packet::control(api.id(), NodeId::BROADCAST, size, Rerr { unreachable });
        api.send(packet, NodeId::BROADCAST);
    }

    /// Invalidate every listed route that goes through the RERR's sender,
    /// and pass those on in a RERR of our own.
    fn handle_rerr(&mut self, api: &mut NodeApi<'_>, rerr: &Rerr, from: NodeId) {
        let mut invalidated = Vec::new();
        for &(dst, seq) in &rerr.unreachable {
            if let Some(route) = self.table.get(dst) {
                if route.valid && route.next_hop == from {
                    self.table.invalidate(dst);
                    invalidated.push((dst, seq));
                }
            }
        }
        self.originate_rerr(api, invalidated);
    }

    fn link_broken(&mut self, api: &mut NodeApi<'_>, neighbour: NodeId) {
        self.neighbours.remove(&neighbour);
        let broken = self.table.invalidate_via(neighbour);
        self.originate_rerr(api, broken);
    }

    /// Route a locally originated packet: broadcast it, send it along a
    /// known route, or buffer it behind a discovery. Returns the
    /// destination when this started a fresh discovery (first attempt at
    /// `ttl`, timing out after `wait`), whose first RREQ the caller sends.
    pub(crate) fn route_output(
        &mut self,
        api: &mut NodeApi<'_>,
        packet: Packet,
        ttl: u8,
        wait: Duration,
    ) -> Option<NodeId> {
        let now = api.now();
        let dst = packet.dst;
        if dst.is_broadcast() {
            api.send(packet, NodeId::BROADCAST);
            return None;
        }
        if self.table.lookup(dst, now).is_some() {
            self.forward_data(api, packet);
            return None;
        }
        let fresh = !self.pending.contains_key(&dst);
        let entry = self.pending.entry(dst).or_insert_with(|| Discovery {
            retries: 0,
            deadline: now + wait,
            ttl,
            queued: VecDeque::new(),
        });
        entry.queued.push_back((packet, now));
        if !fresh {
            return None;
        }
        self.started += 1;
        api.note_route_event(dst, RouteEventKind::DiscoveryStart);
        Some(dst)
    }

    /// Handle a received RERR, a HELLO (without learning its sequence
    /// number) or a data packet. Returns the data packet, its TTL spent,
    /// when this node must forward it.
    pub(crate) fn receive(
        &mut self,
        api: &mut NodeApi<'_>,
        mut packet: Packet,
        from: NodeId,
    ) -> Option<Packet> {
        if let Some(rerr) = packet.body.as_control::<Rerr>() {
            let rerr = rerr.clone();
            self.handle_rerr(api, &rerr, from);
            return None;
        }
        self.touch_neighbour(api, from, None);
        if packet.body.as_control::<Hello>().is_some() {
            return None;
        }
        if packet.dst == api.id() {
            api.deliver_to_app(packet);
            return None;
        }
        if packet.ttl <= 1 {
            api.drop_packet(packet, DropReason::TtlExpired);
            return None;
        }
        packet.ttl -= 1;
        Some(packet)
    }

    /// A route to `dst` arrived: count the discovery a success if one was
    /// running, and send the data it buffered.
    pub(crate) fn complete_discovery(&mut self, api: &mut NodeApi<'_>, dst: NodeId) {
        let Some(p) = self.pending.remove(&dst) else {
            return;
        };
        self.succeeded += 1;
        api.note_route_event(dst, RouteEventKind::DiscoverySuccess);
        for (packet, _) in p.queued {
            self.forward_data(api, packet);
        }
    }

    /// Destinations with a discovery running, in no particular order.
    pub(crate) fn discovering(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.pending.keys().copied()
    }

    /// Run a HELLO or tick timer. On a tick, `next_attempt` decides a due
    /// discovery's next attempt, returning its wait, or `None` to give up,
    /// and `send_rreq` sends that attempt's RREQ at the discovery's TTL.
    pub(crate) fn handle_timer(
        &mut self,
        api: &mut NodeApi<'_>,
        token: u64,
        next_attempt: impl FnMut(&mut Discovery) -> Option<Duration>,
        send_rreq: impl FnMut(&mut Self, &mut NodeApi<'_>, NodeId, u8),
    ) {
        match token {
            TOKEN_HELLO => {
                self.seqno = self.seqno.wrapping_add(1);
                let hello = Hello { seq: self.seqno };
                let size = self.config.hello_size;
                api.send(
                    Packet::control(api.id(), NodeId::BROADCAST, size, hello),
                    NodeId::BROADCAST,
                );
                let jitter = Duration::from_millis(api.rng().gen_range(0..100));
                api.schedule(
                    self.config.hello_interval - Duration::from_millis(50) + jitter,
                    TOKEN_HELLO,
                );
            }
            TOKEN_TICK => {
                self.tick(api, next_attempt, send_rreq);
                api.schedule(TICK, TOKEN_TICK);
            }
            _ => {}
        }
    }

    fn tick(
        &mut self,
        api: &mut NodeApi<'_>,
        mut next_attempt: impl FnMut(&mut Discovery) -> Option<Duration>,
        mut send_rreq: impl FnMut(&mut Self, &mut NodeApi<'_>, NodeId, u8),
    ) {
        let now = api.now();
        // Sort every batch collected from a HashMap before acting on it:
        // iteration order is per-process random, and link breaks, RREQs
        // and drops all have observable effects.
        let silence = self.config.hello_interval * self.config.allowed_hello_loss;
        let mut stale: Vec<NodeId> = self
            .neighbours
            .iter()
            .filter(|(_, &last)| now.saturating_since(last) > silence)
            .map(|(&n, _)| n)
            .collect();
        stale.sort_by_key(|n| n.0);
        for n in stale {
            self.link_broken(api, n);
        }
        self.seen.retain(|_, &mut exp| exp > now);
        self.table.purge(now, PURGE_GRACE);

        // A due destination's retry RREQ goes out before the next one is
        // examined.
        let mut due: Vec<NodeId> = self
            .pending
            .iter()
            .filter(|(_, p)| p.deadline <= now)
            .map(|(&d, _)| d)
            .collect();
        due.sort_by_key(|d| d.0);
        for dst in due {
            let p = self.pending.get_mut(&dst).expect("pending entry");
            if let Some(wait) = next_attempt(p) {
                p.deadline = now + wait;
                let ttl = p.ttl;
                self.retried += 1;
                api.note_route_event(dst, RouteEventKind::DiscoveryRetry);
                send_rreq(self, api, dst, ttl);
            } else {
                self.failed += 1;
                api.note_route_event(dst, RouteEventKind::DiscoveryFailure);
                let p = self.pending.remove(&dst).expect("pending entry");
                for (packet, _) in p.queued {
                    api.drop_packet(packet, DropReason::DiscoveryFailed);
                }
            }
        }

        let max_q = self.config.max_queue_time;
        let mut queued: Vec<(&NodeId, &mut Discovery)> = self.pending.iter_mut().collect();
        queued.sort_by_key(|(d, _)| d.0);
        for (_, p) in queued {
            let mut kept = VecDeque::with_capacity(p.queued.len());
            for (packet, queued_at) in p.queued.drain(..) {
                if now.saturating_since(queued_at) <= max_q {
                    kept.push_back((packet, queued_at));
                } else {
                    api.drop_packet(packet, DropReason::QueueTimeout);
                }
            }
            p.queued = kept;
        }
    }

    /// A unicast to `next_hop` failed at the MAC: the link is broken.
    /// Returns the packet when it is data this node originated, for the
    /// caller to route again; other data is dropped.
    pub(crate) fn tx_failed(
        &mut self,
        api: &mut NodeApi<'_>,
        packet: Packet,
        next_hop: NodeId,
    ) -> Option<Packet> {
        self.link_broken(api, next_hop);
        if packet.is_data() && packet.src == api.id() {
            return Some(packet);
        }
        if packet.is_data() {
            api.drop_packet(packet, DropReason::RetryLimit);
        }
        None
    }

    /// Data buffered behind discoveries dies with the node. Each packet
    /// must reach a terminal fate or the conservation ledger would report
    /// it outstanding forever; they drop in destination order, since
    /// HashMap order would leak into the event stream.
    pub(crate) fn on_crash(&mut self, api: &mut NodeApi<'_>) {
        let mut pending: Vec<(NodeId, Discovery)> = self.pending.drain().collect();
        pending.sort_by_key(|(d, _)| d.0);
        for (_, p) in pending {
            for (packet, _) in p.queued {
                api.drop_packet(packet, DropReason::NodeDown);
            }
        }
    }

    pub(crate) fn telemetry(&self) -> RoutingTelemetry {
        RoutingTelemetry {
            route_table_size: self.table.len() as u64,
            neighbours: self.neighbours.len() as u64,
            discoveries_started: self.started,
            discovery_retries: self.retried,
            discoveries_succeeded: self.succeeded,
            discoveries_failed: self.failed,
            mpr_set_size: 0,
        }
    }

    /// Write the whole protocol state, every map in key order.
    pub(crate) fn capture(&self, w: &mut WireWriter) -> Result<(), WireError> {
        self.table.capture(w);
        w.put_u32(self.seqno);
        w.put_u32(self.msg_id);
        let mut seen: Vec<(&(NodeId, u32), &SimTime)> = self.seen.iter().collect();
        seen.sort_by_key(|&(&(n, id), _)| (n.0, id));
        w.put_usize(seen.len());
        for (&(node, id), &expires) in seen {
            write_node_id(w, node);
            w.put_u32(id);
            write_time(w, expires);
        }
        let mut neighbours: Vec<(&NodeId, &SimTime)> = self.neighbours.iter().collect();
        neighbours.sort_by_key(|(n, _)| n.0);
        w.put_usize(neighbours.len());
        for (&node, &heard) in neighbours {
            write_node_id(w, node);
            write_time(w, heard);
        }
        let mut pending: Vec<(&NodeId, &Discovery)> = self.pending.iter().collect();
        pending.sort_by_key(|(d, _)| d.0);
        w.put_usize(pending.len());
        for (&dst, p) in pending {
            write_node_id(w, dst);
            w.put_u32(p.retries);
            write_time(w, p.deadline);
            if self.config.ttl_in_state {
                w.put_u8(p.ttl);
            }
            w.put_usize(p.queued.len());
            for (packet, queued_at) in &p.queued {
                // Only data packets are ever buffered behind a discovery.
                write_packet(w, packet, &DataOnlyCodec)?;
                write_time(w, *queued_at);
            }
        }
        for v in [self.started, self.retried, self.succeeded, self.failed] {
            w.put_u64(v);
        }
        Ok(())
    }

    /// Rebuild the state from a [`OnDemand::capture`] stream.
    pub(crate) fn restore(&mut self, r: &mut WireReader<'_>) -> Result<(), WireError> {
        self.table.restore(r)?;
        self.seqno = r.get_u32()?;
        self.msg_id = r.get_u32()?;
        self.seen.clear();
        for _ in 0..r.get_usize()? {
            let node = read_node_id(r)?;
            let id = r.get_u32()?;
            self.seen.insert((node, id), read_time(r)?);
        }
        self.neighbours.clear();
        for _ in 0..r.get_usize()? {
            let node = read_node_id(r)?;
            self.neighbours.insert(node, read_time(r)?);
        }
        self.pending.clear();
        for _ in 0..r.get_usize()? {
            let dst = read_node_id(r)?;
            let retries = r.get_u32()?;
            let deadline = read_time(r)?;
            let ttl = if self.config.ttl_in_state {
                r.get_u8()?
            } else {
                0
            };
            // Each entry holds at least its queued-at time.
            let n = r.get_count(8)?;
            let mut queued = VecDeque::with_capacity(n);
            for _ in 0..n {
                let packet = read_packet(r, &DataOnlyCodec)?;
                queued.push_back((packet, read_time(r)?));
            }
            let discovery = Discovery {
                retries,
                deadline,
                ttl,
                queued,
            };
            self.pending.insert(dst, discovery);
        }
        self.started = r.get_u64()?;
        self.retried = r.get_u64()?;
        self.succeeded = r.get_u64()?;
        self.failed = r.get_u64()?;
        Ok(())
    }
}

/// The tag bytes and error names a protocol's codec gives the shared RERR
/// and HELLO bodies. Tags are part of the checkpoint format and fixed
/// forever.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SharedTags {
    pub(crate) rerr: u8,
    pub(crate) hello: u8,
    /// Error name for a payload that is none of the protocol's messages.
    pub(crate) foreign: &'static str,
    /// Error name for a tag that names none of them.
    pub(crate) unknown: &'static str,
}

impl SharedTags {
    /// Encode `blob` if it is a RERR or HELLO; any other payload is
    /// foreign to the protocol.
    pub(crate) fn encode(&self, blob: &ControlBlob, w: &mut WireWriter) -> Result<(), WireError> {
        if let Some(m) = blob.downcast_ref::<Rerr>() {
            w.put_u8(self.rerr);
            w.put_usize(m.unreachable.len());
            for &(dst, seq) in &m.unreachable {
                write_node_id(w, dst);
                w.put_u32(seq);
            }
        } else if let Some(m) = blob.downcast_ref::<Hello>() {
            w.put_u8(self.hello);
            w.put_u32(m.seq);
        } else {
            return Err(WireError::Malformed {
                what: self.foreign,
                value: 0,
            });
        }
        Ok(())
    }

    /// Decode the body after `tag` if it names a RERR or HELLO; any other
    /// tag is unknown to the protocol.
    pub(crate) fn decode(&self, tag: u8, r: &mut WireReader<'_>) -> Result<ControlBlob, WireError> {
        if tag == self.rerr {
            let n = r.get_count(PAIR_BYTES)?;
            let mut unreachable = Vec::with_capacity(n);
            for _ in 0..n {
                unreachable.push((read_node_id(r)?, r.get_u32()?));
            }
            Ok(Arc::new(Rerr { unreachable }))
        } else if tag == self.hello {
            Ok(Arc::new(Hello { seq: r.get_u32()? }))
        } else {
            Err(WireError::Malformed {
                what: self.unknown,
                value: u64::from(tag),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::assert_refuses_huge_counts;
    use crate::{Aodv, Dymo};
    use cavenet_net::RoutingProtocol;

    /// Protocol state up to the queue length of one buffered discovery:
    /// empty table, sequence number, message id, empty duplicate cache and
    /// neighbour set, one discovery with its destination, retries,
    /// deadline and (AODV's layout) TTL.
    fn state_up_to_a_queue_length(ttl: Option<u8>) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_usize(0);
        w.put_u32(7);
        w.put_u32(9);
        w.put_usize(0);
        w.put_usize(0);
        w.put_usize(1);
        write_node_id(&mut w, NodeId(4));
        w.put_u32(1);
        write_time(&mut w, SimTime::from_secs(3));
        if let Some(ttl) = ttl {
            w.put_u8(ttl);
        }
        w.into_bytes()
    }

    #[test]
    fn restore_refuses_queue_lengths_the_stream_cannot_hold() {
        assert_refuses_huge_counts(&state_up_to_a_queue_length(Some(35)), |r| {
            Aodv::new().restore_state(r)
        });
        assert_refuses_huge_counts(&state_up_to_a_queue_length(None), |r| {
            Dymo::new().restore_state(r)
        });
    }
}
