//! The shared traffic ledger and per-flow metrics.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Duration;

use cavenet_net::snapshot::{read_node_id, read_time, write_node_id, write_time};
use cavenet_net::{FlowId, SimTime, WireError, WireReader, WireWriter};

/// A single-threaded shared handle to a [`TrafficRecorder`].
pub type SharedRecorder = Rc<RefCell<TrafficRecorder>>;

#[derive(Debug, Clone, Copy)]
struct SentRecord {
    seq: u32,
    at: SimTime,
    bytes: u32,
}

#[derive(Debug, Clone, Copy)]
struct RecvRecord {
    seq: u32,
    at: SimTime,
    sent_at: SimTime,
    bytes: u32,
}

/// Wire bytes of one captured [`SentRecord`] and [`RecvRecord`].
const SENT_RECORD_BYTES: usize = 16;
const RECV_RECORD_BYTES: usize = 24;

/// Records every CBR packet sent and received, per flow.
///
/// Sources and sinks share one recorder through [`SharedRecorder`]; after
/// the run, [`TrafficRecorder::metrics`] summarizes each flow.
#[derive(Debug, Default)]
pub struct TrafficRecorder {
    sent: HashMap<FlowId, Vec<SentRecord>>,
    received: HashMap<FlowId, Vec<RecvRecord>>,
}

impl TrafficRecorder {
    /// A fresh recorder behind a shared handle.
    pub fn new_shared() -> SharedRecorder {
        Rc::new(RefCell::new(TrafficRecorder::default()))
    }

    /// Record a packet emission.
    pub fn record_sent(&mut self, flow: FlowId, seq: u32, at: SimTime, bytes: u32) {
        self.sent
            .entry(flow)
            .or_default()
            .push(SentRecord { seq, at, bytes });
    }

    /// Record a packet arrival at its destination.
    pub fn record_received(
        &mut self,
        flow: FlowId,
        seq: u32,
        at: SimTime,
        sent_at: SimTime,
        bytes: u32,
    ) {
        self.received.entry(flow).or_default().push(RecvRecord {
            seq,
            at,
            sent_at,
            bytes,
        });
    }

    /// All flows with any activity, sorted.
    pub fn flows(&self) -> Vec<FlowId> {
        let mut v: Vec<FlowId> = self
            .sent
            .keys()
            .chain(self.received.keys())
            .copied()
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// Metrics for one flow.
    pub fn metrics(&self, flow: FlowId) -> FlowMetrics {
        let sent = self.sent.get(&flow).map_or(&[][..], |v| v.as_slice());
        let received = self.received.get(&flow).map_or(&[][..], |v| v.as_slice());
        let mut unique = std::collections::HashSet::new();
        let mut duplicates = 0u64;
        let mut delay_sum = Duration::ZERO;
        let mut max_delay = Duration::ZERO;
        for r in received {
            if unique.insert(r.seq) {
                let d = r.at.saturating_since(r.sent_at);
                delay_sum += d;
                max_delay = max_delay.max(d);
            } else {
                duplicates += 1;
            }
        }
        FlowMetrics {
            flow,
            sent: sent.len() as u64,
            received: unique.len() as u64,
            duplicates,
            bytes_sent: sent.iter().map(|s| u64::from(s.bytes)).sum(),
            bytes_received: received
                .iter()
                .filter(|r| unique.contains(&r.seq))
                .map(|r| u64::from(r.bytes))
                .sum(),
            mean_delay: if unique.is_empty() {
                None
            } else {
                Some(delay_sum / unique.len() as u32)
            },
            max_delay: if unique.is_empty() {
                None
            } else {
                Some(max_delay)
            },
            first_sent: sent.first().map(|s| s.at),
            last_received: received.last().map(|r| r.at),
        }
    }

    /// Goodput of `flow` binned into windows of `bin` seconds over
    /// `[0, duration]`: element `i` is the rate in bits/second of
    /// application payload received during `[i·bin, (i+1)·bin)` — the
    /// quantity on the Z axis of the paper's Figs. 8–10.
    pub fn goodput_series(&self, flow: FlowId, bin: Duration, duration: Duration) -> Vec<f64> {
        let bins = (duration.as_secs_f64() / bin.as_secs_f64()).ceil() as usize;
        let mut out = vec![0.0; bins];
        if let Some(recv) = self.received.get(&flow) {
            for r in recv {
                let i = (r.at.as_secs_f64() / bin.as_secs_f64()) as usize;
                if i < bins {
                    out[i] += f64::from(r.bytes) * 8.0;
                }
            }
        }
        for v in &mut out {
            *v /= bin.as_secs_f64();
        }
        out
    }

    /// Serialize both ledgers, flows in sorted order and records in
    /// arrival order, so checkpoints are independent of `HashMap` iteration
    /// order and resume with counters and delay samples intact.
    pub fn capture(&self, w: &mut WireWriter) {
        fn write_flow(w: &mut WireWriter, f: FlowId) {
            write_node_id(w, f.src);
            write_node_id(w, f.dst);
            w.put_u16(f.port);
        }
        let mut sent_flows: Vec<FlowId> = self.sent.keys().copied().collect();
        sent_flows.sort();
        w.put_usize(sent_flows.len());
        for f in sent_flows {
            write_flow(w, f);
            let records = &self.sent[&f];
            w.put_usize(records.len());
            for s in records {
                w.put_u32(s.seq);
                write_time(w, s.at);
                w.put_u32(s.bytes);
            }
        }
        let mut recv_flows: Vec<FlowId> = self.received.keys().copied().collect();
        recv_flows.sort();
        w.put_usize(recv_flows.len());
        for f in recv_flows {
            write_flow(w, f);
            let records = &self.received[&f];
            w.put_usize(records.len());
            for r in records {
                w.put_u32(r.seq);
                write_time(w, r.at);
                write_time(w, r.sent_at);
                w.put_u32(r.bytes);
            }
        }
    }

    /// Rebuild both ledgers from a [`TrafficRecorder::capture`] stream.
    ///
    /// # Errors
    ///
    /// [`WireError`] on a truncated or malformed stream.
    pub fn restore(&mut self, r: &mut WireReader<'_>) -> Result<(), WireError> {
        fn read_flow(r: &mut WireReader<'_>) -> Result<FlowId, WireError> {
            Ok(FlowId::new(
                read_node_id(r)?,
                read_node_id(r)?,
                r.get_u16()?,
            ))
        }
        self.sent.clear();
        for _ in 0..r.get_usize()? {
            let flow = read_flow(r)?;
            let n = r.get_count(SENT_RECORD_BYTES)?;
            let mut records = Vec::with_capacity(n);
            for _ in 0..n {
                records.push(SentRecord {
                    seq: r.get_u32()?,
                    at: read_time(r)?,
                    bytes: r.get_u32()?,
                });
            }
            self.sent.insert(flow, records);
        }
        self.received.clear();
        for _ in 0..r.get_usize()? {
            let flow = read_flow(r)?;
            let n = r.get_count(RECV_RECORD_BYTES)?;
            let mut records = Vec::with_capacity(n);
            for _ in 0..n {
                records.push(RecvRecord {
                    seq: r.get_u32()?,
                    at: read_time(r)?,
                    sent_at: read_time(r)?,
                    bytes: r.get_u32()?,
                });
            }
            self.received.insert(flow, records);
        }
        Ok(())
    }

    /// Aggregate packet delivery ratio over all flows (unique receptions /
    /// packets sent); `None` when nothing was sent.
    pub fn total_pdr(&self) -> Option<f64> {
        let flows = self.flows();
        let mut sent = 0u64;
        let mut received = 0u64;
        for f in flows {
            let m = self.metrics(f);
            sent += m.sent;
            received += m.received;
        }
        if sent == 0 {
            None
        } else {
            Some(received as f64 / sent as f64)
        }
    }
}

/// Per-flow summary statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowMetrics {
    /// The flow.
    pub flow: FlowId,
    /// Packets the source emitted.
    pub sent: u64,
    /// Unique packets the destination received.
    pub received: u64,
    /// Duplicate receptions (routing pathologies).
    pub duplicates: u64,
    /// Payload bytes emitted.
    pub bytes_sent: u64,
    /// Payload bytes received (unique).
    pub bytes_received: u64,
    /// Mean end-to-end delay of unique receptions.
    pub mean_delay: Option<Duration>,
    /// Largest end-to-end delay of a unique reception — dominated by
    /// packets buffered while a reactive protocol (re)discovers a route, so
    /// it measures route-acquisition time.
    pub max_delay: Option<Duration>,
    /// When the first packet left the source.
    pub first_sent: Option<SimTime>,
    /// When the last packet arrived.
    pub last_received: Option<SimTime>,
}

impl FlowMetrics {
    /// Packet delivery ratio (Fig. 11's Y axis); `None` if nothing was
    /// sent.
    pub fn pdr(&self) -> Option<f64> {
        if self.sent == 0 {
            None
        } else {
            Some(self.received as f64 / self.sent as f64)
        }
    }

    /// Average goodput in bits/second over the flow's active span.
    pub fn goodput_bps(&self) -> f64 {
        match (self.first_sent, self.last_received) {
            (Some(a), Some(b)) if b > a => {
                self.bytes_received as f64 * 8.0 / (b.saturating_since(a)).as_secs_f64()
            }
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cavenet_net::NodeId;

    fn flow() -> FlowId {
        FlowId::new(NodeId(1), NodeId(0), 0)
    }

    #[test]
    fn empty_recorder() {
        let r = TrafficRecorder::default();
        assert!(r.flows().is_empty());
        assert_eq!(r.total_pdr(), None);
        let m = r.metrics(flow());
        assert_eq!(m.sent, 0);
        assert_eq!(m.pdr(), None);
        assert_eq!(m.goodput_bps(), 0.0);
    }

    #[test]
    fn pdr_computation() {
        let mut r = TrafficRecorder::default();
        for seq in 0..10 {
            r.record_sent(flow(), seq, SimTime::from_secs(seq as u64), 512);
        }
        for seq in 0..7 {
            r.record_received(
                flow(),
                seq,
                SimTime::from_secs(seq as u64 + 1),
                SimTime::from_secs(seq as u64),
                512,
            );
        }
        let m = r.metrics(flow());
        assert_eq!(m.sent, 10);
        assert_eq!(m.received, 7);
        assert!((m.pdr().unwrap() - 0.7).abs() < 1e-12);
        assert_eq!(r.total_pdr(), Some(0.7));
    }

    #[test]
    fn duplicates_counted_once() {
        let mut r = TrafficRecorder::default();
        r.record_sent(flow(), 0, SimTime::ZERO, 512);
        r.record_received(flow(), 0, SimTime::from_secs(1), SimTime::ZERO, 512);
        r.record_received(flow(), 0, SimTime::from_secs(2), SimTime::ZERO, 512);
        let m = r.metrics(flow());
        assert_eq!(m.received, 1);
        assert_eq!(m.duplicates, 1);
        assert!((m.pdr().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mean_delay() {
        let mut r = TrafficRecorder::default();
        r.record_sent(flow(), 0, SimTime::ZERO, 512);
        r.record_sent(flow(), 1, SimTime::from_secs(1), 512);
        r.record_received(flow(), 0, SimTime::from_millis(100), SimTime::ZERO, 512);
        r.record_received(
            flow(),
            1,
            SimTime::from_millis(1300),
            SimTime::from_secs(1),
            512,
        );
        let m = r.metrics(flow());
        assert_eq!(m.mean_delay, Some(Duration::from_millis(200)));
    }

    #[test]
    fn goodput_series_bins() {
        let mut r = TrafficRecorder::default();
        // 512 B at t=0.5 and t=1.5.
        r.record_received(flow(), 0, SimTime::from_millis(500), SimTime::ZERO, 512);
        r.record_received(flow(), 1, SimTime::from_millis(1500), SimTime::ZERO, 512);
        let s = r.goodput_series(flow(), Duration::from_secs(1), Duration::from_secs(3));
        assert_eq!(s.len(), 3);
        assert!((s[0] - 4096.0).abs() < 1e-9);
        assert!((s[1] - 4096.0).abs() < 1e-9);
        assert_eq!(s[2], 0.0);
    }

    #[test]
    fn goodput_total() {
        let mut r = TrafficRecorder::default();
        r.record_sent(flow(), 0, SimTime::ZERO, 512);
        r.record_received(flow(), 0, SimTime::from_secs(1), SimTime::ZERO, 512);
        let m = r.metrics(flow());
        // 512 B over 1 s = 4096 b/s.
        assert!((m.goodput_bps() - 4096.0).abs() < 1e-9);
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        let mut r = TrafficRecorder::default();
        let f1 = FlowId::new(NodeId(0), NodeId(3), 0);
        let f2 = FlowId::new(NodeId(2), NodeId(3), 7);
        for seq in 0..5 {
            r.record_sent(f1, seq, SimTime::from_millis(200 * u64::from(seq)), 512);
        }
        r.record_sent(f2, 0, SimTime::from_secs(1), 100);
        for seq in 0..3 {
            r.record_received(
                f1,
                seq,
                SimTime::from_millis(200 * u64::from(seq) + 40),
                SimTime::from_millis(200 * u64::from(seq)),
                512,
            );
        }
        let mut w = WireWriter::new();
        r.capture(&mut w);
        let bytes = w.into_bytes();

        let mut restored = TrafficRecorder::default();
        let mut reader = WireReader::new(&bytes);
        restored.restore(&mut reader).expect("restore");
        reader.finish().expect("whole stream consumed");
        assert_eq!(r.metrics(f1), restored.metrics(f1));
        assert_eq!(r.metrics(f2), restored.metrics(f2));

        let mut w2 = WireWriter::new();
        restored.capture(&mut w2);
        assert_eq!(bytes, w2.into_bytes(), "round trip not bit-identical");
    }

    #[test]
    fn restore_refuses_record_counts_the_stream_cannot_hold() {
        // Each ledger up to one flow's record count: the sent ledger with
        // one flow, then an empty sent ledger and a received one.
        let flow = |w: &mut WireWriter| {
            write_node_id(w, NodeId(0));
            write_node_id(w, NodeId(1));
            w.put_u16(0);
        };
        let mut sent = WireWriter::new();
        sent.put_usize(1);
        flow(&mut sent);
        let mut received = WireWriter::new();
        received.put_usize(0);
        received.put_usize(1);
        flow(&mut received);
        for prefix in [sent.into_bytes(), received.into_bytes()] {
            for count in [1u64 << 40, 1 << 61] {
                let mut bytes = prefix.clone();
                bytes.extend_from_slice(&count.to_le_bytes());
                bytes.extend_from_slice(&[0; 16]);
                let got = TrafficRecorder::default().restore(&mut WireReader::new(&bytes));
                assert!(
                    matches!(got, Err(WireError::Truncated { .. })),
                    "count {count}: {got:?}"
                );
            }
        }
    }

    #[test]
    fn restore_rejects_truncated_stream() {
        let mut r = TrafficRecorder::default();
        r.record_sent(FlowId::new(NodeId(0), NodeId(1), 0), 0, SimTime::ZERO, 512);
        let mut w = WireWriter::new();
        r.capture(&mut w);
        let bytes = w.into_bytes();
        let mut restored = TrafficRecorder::default();
        let mut reader = WireReader::new(&bytes[..bytes.len() - 3]);
        assert!(matches!(
            restored.restore(&mut reader),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn flows_lists_both_directions() {
        let mut r = TrafficRecorder::default();
        let f1 = FlowId::new(NodeId(1), NodeId(0), 0);
        let f2 = FlowId::new(NodeId(2), NodeId(0), 0);
        r.record_sent(f1, 0, SimTime::ZERO, 10);
        r.record_received(f2, 0, SimTime::ZERO, SimTime::ZERO, 10);
        assert_eq!(r.flows(), vec![f1, f2]);
    }
}
