//! Destination-Sequenced Distance Vector routing (Perkins & Bhagwat, 1994).
//!
//! The paper introduces AODV as "an improvement of DSDV to on-demand
//! scheme" (§III-B-2); DSDV itself is the classical *proactive*
//! distance-vector protocol: every node periodically broadcasts its full
//! routing table, entries carry destination-originated sequence numbers
//! (even = reachable, odd = broken) to guarantee loop freedom, and link
//! breaks trigger immediate advertisements of ∞-metric routes.
//!
//! Implemented here as a baseline to compare the paper's protocols against
//! their common ancestor.

use std::collections::HashMap;
use std::time::Duration;

use cavenet_net::snapshot::{read_node_id, read_time, write_node_id, write_time};
use cavenet_net::{
    ControlBlob, ControlCodec, DropReason, NodeApi, NodeId, Packet, RoutingProtocol,
    RoutingTelemetry, SimTime, WireError, WireReader, WireWriter,
};

/// DSDV tunables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DsdvConfig {
    /// Full-dump broadcast interval.
    pub update_interval: Duration,
    /// Route entries older than this are dropped (3 × update by default).
    pub route_lifetime: Duration,
    /// Metric treated as unreachable (∞).
    pub infinity: u32,
}

impl Default for DsdvConfig {
    fn default() -> Self {
        DsdvConfig {
            update_interval: Duration::from_secs(2),
            route_lifetime: Duration::from_secs(6),
            infinity: 16,
        }
    }
}

/// One advertised route.
#[derive(Debug, Clone, Copy)]
struct Advertised {
    dst: NodeId,
    metric: u32,
    seqno: u32,
}

/// A full-dump update message (wire ≈ 8 + 12·entries bytes).
#[derive(Debug, Clone)]
struct Update {
    entries: Vec<Advertised>,
}

#[derive(Debug, Clone, Copy)]
struct DsdvRoute {
    next_hop: NodeId,
    metric: u32,
    seqno: u32,
    updated: SimTime,
}

const TOKEN_UPDATE: u64 = 1;
const TOKEN_TICK: u64 = 2;
const TICK: Duration = Duration::from_millis(500);

/// The DSDV routing protocol state for one node.
#[derive(Debug)]
pub struct Dsdv {
    config: DsdvConfig,
    routes: HashMap<NodeId, DsdvRoute>,
    own_seq: u32,
}

impl Default for Dsdv {
    fn default() -> Self {
        Self::new()
    }
}

impl Dsdv {
    /// DSDV with default configuration.
    pub fn new() -> Self {
        Self::with_config(DsdvConfig::default())
    }

    /// DSDV with explicit configuration.
    pub fn with_config(config: DsdvConfig) -> Self {
        Dsdv {
            config,
            routes: HashMap::new(),
            own_seq: 0,
        }
    }

    fn broadcast_update(&mut self, api: &mut NodeApi<'_>) {
        // Our own entry advances by 2 (stays even = reachable).
        self.own_seq = self.own_seq.wrapping_add(2);
        let mut entries = vec![Advertised {
            dst: api.id(),
            metric: 0,
            seqno: self.own_seq,
        }];
        for (&dst, r) in &self.routes {
            if dst != api.id() {
                entries.push(Advertised {
                    dst,
                    metric: r.metric,
                    seqno: r.seqno,
                });
            }
        }
        entries.sort_by_key(|e| e.dst);
        let size = 8 + 12 * entries.len() as u32;
        let packet = Packet::control(api.id(), NodeId::BROADCAST, size, Update { entries });
        api.send(packet, NodeId::BROADCAST);
    }

    fn handle_update(&mut self, api: &mut NodeApi<'_>, update: &Update, from: NodeId) {
        let now = api.now();
        let me = api.id();
        let mut broke_something = false;
        // The sender itself is a 1-hop neighbour: its own entry covers this.
        for adv in &update.entries {
            if adv.dst == me {
                continue;
            }
            let metric = if adv.metric >= self.config.infinity {
                self.config.infinity
            } else {
                adv.metric + 1
            };
            let adopt = match self.routes.get(&adv.dst) {
                None => metric < self.config.infinity,
                Some(old) => {
                    let newer = seq32_newer(adv.seqno, old.seqno);
                    let same_and_better = adv.seqno == old.seqno && metric < old.metric;
                    // An ∞-metric advert from our own next hop invalidates.
                    let poison = old.next_hop == from && metric >= self.config.infinity;
                    newer || same_and_better || poison
                }
            };
            if adopt {
                let was_usable = self
                    .routes
                    .get(&adv.dst)
                    .is_some_and(|r| r.metric < self.config.infinity);
                if metric >= self.config.infinity && was_usable {
                    broke_something = true;
                }
                self.routes.insert(
                    adv.dst,
                    DsdvRoute {
                        next_hop: from,
                        metric,
                        seqno: adv.seqno,
                        updated: now,
                    },
                );
            }
        }
        if broke_something {
            // Triggered update propagates the breakage quickly.
            self.broadcast_update(api);
        }
    }

    fn lookup(&self, dst: NodeId) -> Option<NodeId> {
        self.routes
            .get(&dst)
            .filter(|r| r.metric < self.config.infinity)
            .map(|r| r.next_hop)
    }

    fn link_broken(&mut self, api: &mut NodeApi<'_>, neighbour: NodeId) {
        let now = api.now();
        let mut any = false;
        for r in self.routes.values_mut() {
            if r.next_hop == neighbour && r.metric < self.config.infinity {
                r.metric = self.config.infinity;
                // Odd sequence number marks a broken route; only the
                // destination can supersede it with a fresh even one.
                r.seqno = r.seqno.wrapping_add(1);
                r.updated = now;
                any = true;
            }
        }
        if any {
            self.broadcast_update(api);
        }
    }

    fn tick(&mut self, api: &mut NodeApi<'_>) {
        let now = api.now();
        let lifetime = self.config.route_lifetime;
        self.routes
            .retain(|_, r| now.saturating_since(r.updated) <= lifetime);
    }
}

/// 32-bit circular comparison, as for AODV.
fn seq32_newer(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) > 0
}

/// Serializer for DSDV's single in-flight control payload (the full-dump
/// update). The tag byte is part of the checkpoint format and fixed
/// forever.
#[derive(Debug, Clone, Copy, Default)]
pub struct DsdvCodec;

const CTRL_UPDATE: u8 = 1;
/// Wire bytes of one advertised route: destination, metric, seqno.
const ADVERTISED_BYTES: usize = 12;

impl ControlCodec for DsdvCodec {
    fn encode(&self, blob: &ControlBlob, w: &mut WireWriter) -> Result<(), WireError> {
        let Some(m) = blob.downcast_ref::<Update>() else {
            return Err(WireError::Malformed {
                what: "non-DSDV control payload",
                value: 0,
            });
        };
        w.put_u8(CTRL_UPDATE);
        w.put_usize(m.entries.len());
        for adv in &m.entries {
            write_node_id(w, adv.dst);
            w.put_u32(adv.metric);
            w.put_u32(adv.seqno);
        }
        Ok(())
    }

    fn decode(&self, r: &mut WireReader<'_>) -> Result<ControlBlob, WireError> {
        match r.get_u8()? {
            CTRL_UPDATE => {
                let n = r.get_count(ADVERTISED_BYTES)?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    entries.push(Advertised {
                        dst: read_node_id(r)?,
                        metric: r.get_u32()?,
                        seqno: r.get_u32()?,
                    });
                }
                Ok(std::sync::Arc::new(Update { entries }))
            }
            tag => Err(WireError::Malformed {
                what: "dsdv control tag",
                value: u64::from(tag),
            }),
        }
    }
}

impl RoutingProtocol for Dsdv {
    fn name(&self) -> &'static str {
        "dsdv"
    }

    fn start(&mut self, api: &mut NodeApi<'_>) {
        let jitter = Duration::from_millis(api.rng().gen_range(0..500));
        api.schedule(Duration::from_millis(100) + jitter, TOKEN_UPDATE);
        api.schedule(TICK + jitter, TOKEN_TICK);
    }

    fn route_output(&mut self, api: &mut NodeApi<'_>, packet: Packet) {
        if packet.dst.is_broadcast() {
            api.send(packet, NodeId::BROADCAST);
            return;
        }
        if let Some(nh) = self.lookup(packet.dst) {
            api.send(packet, nh);
        } else {
            // Proactive protocol: no route means drop.
            api.drop_packet(packet, DropReason::NoRoute);
        }
    }

    fn handle_received(&mut self, api: &mut NodeApi<'_>, mut packet: Packet, from: NodeId) {
        if let Some(update) = packet.body.as_control::<Update>() {
            let update = update.clone();
            self.handle_update(api, &update, from);
            return;
        }
        if packet.dst == api.id() {
            api.deliver_to_app(packet);
            return;
        }
        if packet.ttl <= 1 {
            api.drop_packet(packet, DropReason::TtlExpired);
            return;
        }
        packet.ttl -= 1;
        if let Some(nh) = self.lookup(packet.dst) {
            api.send(packet, nh);
        } else {
            api.drop_packet(packet, DropReason::NoRoute);
        }
    }

    fn handle_timer(&mut self, api: &mut NodeApi<'_>, token: u64) {
        match token {
            TOKEN_UPDATE => {
                self.broadcast_update(api);
                let jitter = Duration::from_millis(api.rng().gen_range(0..200));
                api.schedule(
                    self.config.update_interval - Duration::from_millis(100) + jitter,
                    TOKEN_UPDATE,
                );
            }
            TOKEN_TICK => {
                self.tick(api);
                api.schedule(TICK, TOKEN_TICK);
            }
            _ => {}
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn telemetry(&self) -> RoutingTelemetry {
        RoutingTelemetry {
            route_table_size: self.routes.len() as u64,
            // DSDV's 1-hop entries double as its neighbour set.
            neighbours: self.routes.values().filter(|r| r.metric == 1).count() as u64,
            ..RoutingTelemetry::default()
        }
    }

    fn on_crash(&mut self, _api: &mut NodeApi<'_>) {
        // DSDV forwards or drops immediately (no discovery buffer), so
        // there is nothing to surrender; distance-vector state is discarded
        // or aged out per the RecoveryMode semantics.
    }

    fn tx_failed(&mut self, api: &mut NodeApi<'_>, packet: Packet, next_hop: NodeId) {
        self.link_broken(api, next_hop);
        if packet.is_data() {
            api.drop_packet(packet, DropReason::RetryLimit);
        }
    }

    fn capture_state(&self, w: &mut WireWriter) -> Result<(), WireError> {
        let mut dsts: Vec<NodeId> = self.routes.keys().copied().collect();
        dsts.sort_by_key(|d| d.0);
        w.put_usize(dsts.len());
        for dst in dsts {
            let r = &self.routes[&dst];
            write_node_id(w, dst);
            write_node_id(w, r.next_hop);
            w.put_u32(r.metric);
            w.put_u32(r.seqno);
            write_time(w, r.updated);
        }
        w.put_u32(self.own_seq);
        Ok(())
    }

    fn restore_state(&mut self, r: &mut WireReader<'_>) -> Result<(), WireError> {
        self.routes.clear();
        let n = r.get_usize()?;
        for _ in 0..n {
            let dst = read_node_id(r)?;
            let route = DsdvRoute {
                next_hop: read_node_id(r)?,
                metric: r.get_u32()?,
                seqno: r.get_u32()?,
                updated: read_time(r)?,
            };
            self.routes.insert(dst, route);
        }
        self.own_seq = r.get_u32()?;
        Ok(())
    }

    fn control_codec(&self) -> Option<Box<dyn ControlCodec>> {
        Some(Box::new(DsdvCodec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{run_line, run_ring};

    #[test]
    fn name() {
        assert_eq!(Dsdv::new().name(), "dsdv");
    }

    #[test]
    fn seq_comparison() {
        assert!(seq32_newer(4, 2));
        assert!(!seq32_newer(2, 4));
        assert!(seq32_newer(0, u32::MAX - 1));
    }

    #[test]
    fn codec_refuses_counts_the_payload_cannot_hold() {
        crate::testutil::assert_refuses_huge_counts(&[CTRL_UPDATE], |r| DsdvCodec.decode(r));
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        crate::testutil::assert_snapshot_round_trip(4, |_| Box::new(Dsdv::new()), 8.0, 7);
    }

    #[test]
    fn codec_round_trips_update_and_rejects_garbage() {
        let codec = DsdvCodec;
        let blob: ControlBlob = std::sync::Arc::new(Update {
            entries: vec![
                Advertised {
                    dst: NodeId(0),
                    metric: 0,
                    seqno: 8,
                },
                Advertised {
                    dst: NodeId(2),
                    metric: 3,
                    seqno: 5,
                },
            ],
        });
        let mut w = WireWriter::new();
        codec.encode(&blob, &mut w).expect("encode");
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let decoded = codec.decode(&mut r).expect("decode");
        r.finish().expect("whole stream consumed");
        let mut w2 = WireWriter::new();
        codec.encode(&decoded, &mut w2).expect("re-encode");
        assert_eq!(bytes, w2.into_bytes(), "codec round trip not stable");

        let foreign: ControlBlob = std::sync::Arc::new("nope");
        assert!(matches!(
            codec.encode(&foreign, &mut WireWriter::new()),
            Err(WireError::Malformed { .. })
        ));
        let mut bad = WireReader::new(&[0x7F]);
        assert!(matches!(
            codec.decode(&mut bad),
            Err(WireError::Malformed {
                what: "dsdv control tag",
                ..
            })
        ));
    }

    #[test]
    fn single_hop_delivery_after_convergence() {
        let (log, _) = run_line(2, 200.0, |_| Box::new(Dsdv::new()), 0, 1, 30, 12.0, 1);
        let got = log.borrow().received.len();
        assert!(got >= 20, "DSDV single hop should deliver, got {got}/30");
    }

    #[test]
    fn multi_hop_delivery() {
        // Full dumps every 2 s: a 4-hop chain converges in ≈4 update
        // rounds.
        let (log, _) = run_line(5, 200.0, |_| Box::new(Dsdv::new()), 0, 4, 40, 30.0, 2);
        let got = log.borrow().received.len();
        assert!(got >= 15, "DSDV multi-hop delivery too low: {got}/40");
    }

    #[test]
    fn ring_delivery() {
        let (log, _) = run_ring(30, 3000.0, |_| Box::new(Dsdv::new()), 5, 0, 40, 40.0, 3);
        let got = log.borrow().received.len();
        assert!(got >= 10, "DSDV ring delivery too low: {got}/40");
    }

    #[test]
    fn partitioned_destination_not_delivered() {
        let mobility =
            cavenet_net::StaticMobility::new(vec![(0.0, 0.0), (200.0, 0.0), (5000.0, 0.0)]);
        let (log, _) = crate::testutil::run_with_mobility(
            mobility,
            3,
            |_| Box::new(Dsdv::new()),
            0,
            2,
            5,
            15.0,
            4,
        );
        assert_eq!(log.borrow().received.len(), 0);
    }

    #[test]
    fn periodic_updates_flow() {
        let (_, sim) = run_line(2, 100.0, |_| Box::new(Dsdv::new()), 0, 1, 0, 10.0, 5);
        // ≈1 update per 2 s per node, plus possible triggered ones.
        let ctrl = sim.node_stats(0).control_sent;
        assert!((4..=20).contains(&ctrl), "expected ≈5 updates, got {ctrl}");
    }

    #[test]
    fn aodv_descends_from_dsdv_with_less_overhead() {
        // The motivation for AODV (§III-B-2): create routes only when
        // needed. With a single short flow, AODV's control volume should
        // undercut DSDV's periodic full dumps on a larger network.
        let (_, dsdv) = run_line(8, 200.0, |_| Box::new(Dsdv::new()), 0, 1, 3, 20.0, 6);
        let (_, aodv) = run_line(8, 200.0, |_| Box::new(crate::Aodv::new()), 0, 1, 3, 20.0, 6);
        let dsdv_bytes: u64 = (0..8).map(|i| dsdv.node_stats(i).control_bytes_sent).sum();
        let aodv_bytes: u64 = (0..8).map(|i| aodv.node_stats(i).control_bytes_sent).sum();
        assert!(
            aodv_bytes < dsdv_bytes,
            "on-demand should beat full dumps: AODV {aodv_bytes} vs DSDV {dsdv_bytes}"
        );
    }
}
