//! Per-node radio state and network-layer statistics.

use crate::snapshot::{WireError, WireReader, WireWriter};

/// Network-layer counters for one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeStats {
    /// Routing control packets sent (originated or forwarded).
    pub control_sent: u64,
    /// Bytes of routing control traffic sent.
    pub control_bytes_sent: u64,
    /// Data packets originated by this node's application.
    pub data_originated: u64,
    /// Data packets forwarded on behalf of others.
    pub data_forwarded: u64,
    /// Data packets delivered to this node's application.
    pub data_delivered: u64,
    /// Data packets discarded at this node's network layer (no route, TTL,
    /// buffer timeout, link failure — see
    /// [`DropReason`](crate::DropReason)). MAC-level interface-queue drops
    /// are counted separately in [`MacStats`](crate::MacStats).
    pub data_dropped: u64,
}

/// Outcome of a completed reception.
///
/// The radio reports only the *disposition*; it never holds frame payloads.
/// The simulator fetches the frame from the channel exactly once, and only
/// on [`RxOutcome::Decoded`] — collided and unheard signals cost no copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RxOutcome {
    /// The locked signal finished cleanly; the frame would decode.
    Decoded,
    /// The frame was corrupted by a collision.
    Collided,
    /// The signal was never locked onto (noise, or we were busy).
    NotReceived,
}

#[derive(Debug, Clone, Copy, Default)]
struct Arrival {
    tx_id: u64,
    power: f64,
}

/// Arrivals a radio keeps inline; under heavy contention the rest spill to
/// the heap.
const INLINE_ARRIVALS: usize = 3;

/// The signals currently arriving, in arrival order: the first ones inline
/// (`inline[..len]`), the rest behind them in `spill`. While `spill` holds
/// any, new arrivals join it, so the order survives removals from the
/// inline part.
#[derive(Debug, Default)]
struct Arrivals {
    inline: [Arrival; INLINE_ARRIVALS],
    len: u8,
    spill: Vec<Arrival>,
}

impl Arrivals {
    fn is_empty(&self) -> bool {
        self.len == 0 && self.spill.is_empty()
    }

    fn len(&self) -> usize {
        usize::from(self.len) + self.spill.len()
    }

    fn iter(&self) -> impl Iterator<Item = &Arrival> {
        self.inline[..usize::from(self.len)]
            .iter()
            .chain(&self.spill)
    }

    fn push(&mut self, a: Arrival) {
        let n = usize::from(self.len);
        if n < INLINE_ARRIVALS && self.spill.is_empty() {
            self.inline[n] = a;
            self.len += 1;
        } else {
            self.spill.push(a);
        }
    }

    /// Drop every arrival of `tx_id`, keeping the others in order.
    fn remove(&mut self, tx_id: u64) {
        let mut kept = 0;
        for i in 0..usize::from(self.len) {
            if self.inline[i].tx_id != tx_id {
                self.inline[kept] = self.inline[i];
                kept += 1;
            }
        }
        self.len = kept as u8;
        if !self.spill.is_empty() {
            self.spill.retain(|a| a.tx_id != tx_id);
        }
    }

    fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }
}

#[derive(Debug, Clone, Copy)]
struct RxLock {
    tx_id: u64,
    power: f64,
    corrupted: bool,
}

/// Receiver-side radio state: the set of signals currently arriving (above
/// the carrier-sense floor), the reception being decoded, and the capture
/// rule applied on overlap — ns-2's wireless-phy semantics.
#[derive(Debug, Default)]
pub(crate) struct Radio {
    transmitting: bool,
    lock: Option<RxLock>,
    arrivals: Arrivals,
}

impl Radio {
    /// Whether the station senses the medium busy (own transmission or any
    /// arriving signal above the carrier-sense threshold).
    pub(crate) fn medium_busy(&self) -> bool {
        self.transmitting || !self.arrivals.is_empty()
    }

    pub(crate) fn is_transmitting(&self) -> bool {
        self.transmitting
    }

    /// Start of an arriving signal (already filtered to ≥ CS threshold).
    pub(crate) fn on_rx_start(
        &mut self,
        tx_id: u64,
        power: f64,
        rx_threshold: f64,
        capture_ratio: f64,
    ) {
        self.arrivals.push(Arrival { tx_id, power });
        if self.transmitting {
            // Half-duplex: cannot decode while transmitting.
            return;
        }
        match &mut self.lock {
            None => {
                if power >= rx_threshold {
                    // Interference present at lock time can corrupt from the
                    // start unless we capture over it.
                    let corrupted = self
                        .arrivals
                        .iter()
                        .any(|a| a.tx_id != tx_id && power < capture_ratio * a.power);
                    self.lock = Some(RxLock {
                        tx_id,
                        power,
                        corrupted,
                    });
                }
            }
            Some(lock) => {
                // Capture rule: the locked frame survives only if it is
                // stronger than the newcomer by the capture ratio.
                if lock.power < capture_ratio * power {
                    lock.corrupted = true;
                }
            }
        }
    }

    /// A signal finished arriving. Returns what happened if it was the
    /// locked frame.
    pub(crate) fn on_rx_end(&mut self, tx_id: u64) -> RxOutcome {
        self.arrivals.remove(tx_id);
        match self.lock {
            Some(lock) if lock.tx_id == tx_id => {
                let corrupted = lock.corrupted;
                self.lock = None;
                if corrupted || self.transmitting {
                    RxOutcome::Collided
                } else {
                    RxOutcome::Decoded
                }
            }
            _ => RxOutcome::NotReceived,
        }
    }

    /// We started transmitting: any reception in progress is ruined.
    pub(crate) fn on_tx_start(&mut self) {
        self.transmitting = true;
        if let Some(lock) = &mut self.lock {
            lock.corrupted = true;
        }
    }

    pub(crate) fn on_tx_end(&mut self) {
        self.transmitting = false;
    }

    /// The node crashed: forget every signal in flight and any reception
    /// lock. Subsequent `RxEnd` events for pre-crash arrivals resolve to
    /// [`RxOutcome::NotReceived`], which is exactly what a powered-off
    /// receiver produces.
    pub(crate) fn reset(&mut self) {
        self.transmitting = false;
        self.lock = None;
        self.arrivals.clear();
    }

    /// Serialize the receiver state: the arrival set in insertion order
    /// (capture decisions depend on it), the current lock, and the
    /// transmit flag.
    pub(crate) fn capture(&self, w: &mut WireWriter) {
        w.put_bool(self.transmitting);
        match &self.lock {
            None => w.put_bool(false),
            Some(l) => {
                w.put_bool(true);
                w.put_u64(l.tx_id);
                w.put_f64(l.power);
                w.put_bool(l.corrupted);
            }
        }
        w.put_usize(self.arrivals.len());
        for a in self.arrivals.iter() {
            w.put_u64(a.tx_id);
            w.put_f64(a.power);
        }
    }

    /// Rebuild the receiver state from a [`Radio::capture`] stream.
    pub(crate) fn restore(&mut self, r: &mut WireReader<'_>) -> Result<(), WireError> {
        self.transmitting = r.get_bool()?;
        self.lock = if r.get_bool()? {
            Some(RxLock {
                tx_id: r.get_u64()?,
                power: r.get_f64()?,
                corrupted: r.get_bool()?,
            })
        } else {
            None
        };
        self.arrivals.clear();
        let n = r.get_usize()?;
        for _ in 0..n {
            self.arrivals.push(Arrival {
                tx_id: r.get_u64()?,
                power: r.get_f64()?,
            });
        }
        Ok(())
    }
}

// Per-node state lives in struct-of-arrays form on the simulator (`macs`,
// `radios`, `node_stats`, `routings`, `apps`): there is no aggregate Node
// struct. The hot paths (dispatch, broadcast) walk only the arrays they
// touch, and a node's id is its index.

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const RX: f64 = 1e-10;
    const CAP: f64 = 10.0;

    #[test]
    fn clean_reception_decodes() {
        let mut r = Radio::default();
        assert!(!r.medium_busy());
        r.on_rx_start(1, 1e-9, RX, CAP);
        assert!(r.medium_busy());
        assert_eq!(r.on_rx_end(1), RxOutcome::Decoded);
        assert!(!r.medium_busy());
    }

    #[test]
    fn weak_signal_is_sensed_but_not_decoded() {
        let mut r = Radio::default();
        r.on_rx_start(1, 1e-12, RX, CAP); // above CS floor, below RX threshold
        assert!(r.medium_busy());
        assert_eq!(r.on_rx_end(1), RxOutcome::NotReceived);
    }

    #[test]
    fn collision_of_comparable_signals() {
        let mut r = Radio::default();
        r.on_rx_start(1, 1e-9, RX, CAP);
        r.on_rx_start(2, 0.5e-9, RX, CAP); // within 10× of the locked frame
        assert_eq!(r.on_rx_end(1), RxOutcome::Collided);
        assert_eq!(r.on_rx_end(2), RxOutcome::NotReceived);
    }

    #[test]
    fn capture_over_weak_interferer() {
        let mut r = Radio::default();
        r.on_rx_start(1, 1e-8, RX, CAP);
        r.on_rx_start(2, 1e-10, RX, CAP); // 100× weaker: captured over
        assert_eq!(r.on_rx_end(1), RxOutcome::Decoded);
    }

    #[test]
    fn interference_present_at_lock_time_corrupts() {
        let mut r = Radio::default();
        r.on_rx_start(1, 1e-12, RX, CAP); // noise first (below RX threshold)
        r.on_rx_start(2, 5e-12, RX, CAP); // would-be frame, but < 10× the noise
                                          // Signal 2 locks but is corrupted from the start... only if it
                                          // reached the rx threshold at all; use stronger numbers:
        let mut r2 = Radio::default();
        r2.on_rx_start(1, 1e-10, RX, CAP);
        // tx 1 locks. End it; now test new lock with lingering interference.
        let _ = r2.on_rx_end(1);
        r2.on_rx_start(2, 2e-10, RX, CAP); // interferer arrives first
        r2.on_rx_start(3, 4e-10, RX, CAP); // wait: 2 locks (≥ RX), 3 corrupts 2
        assert_eq!(r2.on_rx_end(2), RxOutcome::Collided);
    }

    #[test]
    fn transmitting_blocks_reception() {
        let mut r = Radio::default();
        r.on_tx_start();
        assert!(r.is_transmitting());
        r.on_rx_start(1, 1e-8, RX, CAP);
        assert_eq!(r.on_rx_end(1), RxOutcome::NotReceived);
        r.on_tx_end();
        assert!(!r.is_transmitting());
    }

    #[test]
    fn tx_start_ruins_ongoing_rx() {
        let mut r = Radio::default();
        r.on_rx_start(1, 1e-8, RX, CAP);
        r.on_tx_start();
        r.on_tx_end();
        assert_eq!(r.on_rx_end(1), RxOutcome::Collided);
    }

    #[test]
    fn reset_clears_locks_and_arrivals() {
        let mut r = Radio::default();
        r.on_tx_start();
        r.on_rx_start(1, 1e-8, RX, CAP);
        r.reset();
        assert!(!r.medium_busy());
        assert!(!r.is_transmitting());
        // The stale RxEnd for the pre-crash arrival is a non-reception.
        assert_eq!(r.on_rx_end(1), RxOutcome::NotReceived);
    }

    proptest! {
        /// The arrival set, inline slots and spill together, keeps the
        /// order and contents a plain vector would.
        #[test]
        fn arrivals_keep_vector_order(ops in prop::collection::vec((any::<bool>(), 0u64..8), 0..64)) {
            let (mut arrivals, mut reference) = (Arrivals::default(), Vec::new());
            for (push, tx_id) in ops {
                if push {
                    arrivals.push(Arrival { tx_id, power: tx_id as f64 });
                    reference.push(tx_id);
                } else {
                    arrivals.remove(tx_id);
                    reference.retain(|&t| t != tx_id);
                }
                let ids: Vec<u64> = arrivals.iter().map(|a| a.tx_id).collect();
                prop_assert_eq!(&ids, &reference);
                prop_assert_eq!(arrivals.len(), reference.len());
                prop_assert_eq!(arrivals.is_empty(), reference.is_empty());
            }
        }
    }

    #[test]
    fn medium_busy_while_any_arrival() {
        let mut r = Radio::default();
        r.on_rx_start(1, 1e-12, RX, CAP);
        r.on_rx_start(2, 1e-12, RX, CAP);
        let _ = r.on_rx_end(1);
        assert!(r.medium_busy(), "second signal still arriving");
        let _ = r.on_rx_end(2);
        assert!(!r.medium_busy());
    }
}
