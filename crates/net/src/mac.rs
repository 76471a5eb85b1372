//! IEEE 802.11 DCF medium-access control.
//!
//! Implements the subset of 802.11 that the paper's Table 1 configures: DCF
//! (CSMA/CA) with DSSS timing at a 2 Mb/s data rate, **no RTS/CTS**,
//! unicast frames acknowledged and retransmitted with binary exponential
//! backoff, broadcast frames sent once without acknowledgement. Failed
//! unicast delivery (retry limit exceeded) is reported upward, which is how
//! AODV/DYMO detect link breakage from the data link layer.
//!
//! The MAC is written against a narrow [`MacHooks`] interface (timers to
//! schedule, frames to put on the air, upcalls to the network layer), which
//! makes the whole state machine unit-testable without a simulator.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use cavenet_rng::SimRng;

use crate::observer::{DropReason, NoopObserver, SimObserver};
use crate::packet::{Frame, FrameKind};
use crate::snapshot::{
    read_frame, read_time, write_frame, write_time, ControlCodec, WireError, WireReader, WireWriter,
};
use crate::stats::DropCounts;
use crate::{NodeId, Packet, ScenarioConfig, SimTime};

/// 802.11 DCF timing and policy parameters (DSSS PHY defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacParams {
    /// Slot time (DSSS: 20 µs).
    pub slot: Duration,
    /// Short inter-frame space (DSSS: 10 µs).
    pub sifs: Duration,
    /// DCF inter-frame space (SIFS + 2·slot = 50 µs).
    pub difs: Duration,
    /// Minimum contention window (DSSS: 31).
    pub cw_min: u32,
    /// Maximum contention window (DSSS: 1023).
    pub cw_max: u32,
    /// Maximum transmission attempts for a unicast frame (long retry limit).
    pub retry_limit: u32,
    /// Interface (drop-tail) queue capacity, like ns-2's `ifqlen`.
    pub queue_capacity: usize,
    /// Network-layer header overhead added to every data frame (bytes).
    pub ip_overhead_bytes: u32,
    /// MAC header + FCS overhead added to every data frame (bytes).
    pub mac_overhead_bytes: u32,
    /// ACK frame size (bytes).
    pub ack_size_bytes: u32,
    /// RTS/CTS handshake threshold: unicast data frames of at least this
    /// many bytes are preceded by an RTS/CTS exchange with NAV-based
    /// virtual carrier sensing. `None` disables the handshake — the paper's
    /// Table 1 setting.
    pub rts_threshold: Option<u32>,
    /// RTS frame size (bytes).
    pub rts_size_bytes: u32,
    /// CTS frame size (bytes).
    pub cts_size_bytes: u32,
}

impl Default for MacParams {
    fn default() -> Self {
        MacParams {
            slot: Duration::from_micros(20),
            sifs: Duration::from_micros(10),
            difs: Duration::from_micros(50),
            cw_min: 31,
            cw_max: 1023,
            retry_limit: 7,
            queue_capacity: 50,
            ip_overhead_bytes: 20,
            mac_overhead_bytes: 28,
            ack_size_bytes: 14,
            rts_threshold: None,
            rts_size_bytes: 20,
            cts_size_bytes: 14,
        }
    }
}

/// Counters the MAC maintains (per node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MacStats {
    /// Data frames put on the air (including retransmissions).
    pub data_tx: u64,
    /// Broadcast data frames put on the air.
    pub broadcast_tx: u64,
    /// ACK frames put on the air.
    pub ack_tx: u64,
    /// Retransmission attempts.
    pub retries: u64,
    /// Unicast frames dropped after exhausting the retry limit.
    pub retry_drops: u64,
    /// Frames dropped because the interface queue was full.
    pub queue_drops: u64,
    /// Data frames received and accepted (addressed to us or broadcast).
    pub data_rx: u64,
    /// ACK frames received and matched to a pending transmission.
    pub ack_rx: u64,
    /// Frames overheard that were addressed elsewhere.
    pub overheard: u64,
    /// RTS frames put on the air.
    pub rts_tx: u64,
    /// CTS frames put on the air.
    pub cts_tx: u64,
    /// High-water mark of the interface queue (frames), including the
    /// head-of-line frame in service.
    pub queue_hwm: u64,
    /// Log₂ histogram of drawn backoff slot counts: bucket 0 holds draws of
    /// 0 slots, bucket `k ≥ 1` holds draws in `[2^(k-1), 2^k - 1]`. With
    /// `cw_max = 1023` the last populated bucket is 10; the distribution
    /// shifting right is the signature of contention collapse.
    pub backoff_hist: [u64; MacStats::BACKOFF_BUCKETS],
}

impl MacStats {
    /// Number of log₂ backoff buckets (covers `cw_max` up to 1023).
    pub const BACKOFF_BUCKETS: usize = 11;
}

/// What the MAC asks its host to do; drained by the simulator after every
/// MAC entry point.
#[derive(Debug)]
pub(crate) enum MacUpcall {
    /// Deliver a received packet to the network layer.
    Deliver {
        /// The decapsulated packet.
        packet: Packet,
        /// The transmitting neighbour.
        from: NodeId,
    },
    /// A unicast frame was acknowledged.
    TxOk {
        /// The delivered packet.
        packet: Packet,
        /// The next hop that acknowledged.
        next_hop: NodeId,
    },
    /// A unicast frame exhausted its retries.
    TxFailed {
        /// The undeliverable packet.
        packet: Packet,
        /// The unreachable next hop.
        next_hop: NodeId,
    },
}

/// Mutable context handed to every MAC entry point.
pub(crate) struct MacHooks<'a, O: SimObserver = NoopObserver> {
    /// Current virtual time.
    pub now: SimTime,
    /// Random stream for backoff draws.
    pub rng: &'a mut SimRng,
    /// Timers to schedule: `(delay, timer_seq)`.
    pub timers: &'a mut Vec<(Duration, u64)>,
    /// Frames to put on the air immediately.
    pub tx: &'a mut Vec<Frame>,
    /// Upcalls to the network layer.
    pub upcalls: &'a mut Vec<MacUpcall>,
    /// Simulation-wide per-reason drop counters (always maintained).
    pub drops: &'a mut DropCounts,
    /// Engine observer (no-op by default).
    pub observer: &'a mut O,
    /// The simulator's one configuration: DCF timing and policy, and the
    /// PHY rates that set frame airtimes.
    pub config: &'a ScenarioConfig,
}

/// DCF states of one station, as reported through
/// [`SimObserver::on_mac_transition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MacState {
    /// Queue empty, nothing in service.
    Idle = 0,
    /// Waiting for the medium to become idle.
    WaitIdle = 1,
    /// DIFS timer running.
    WaitDifs = 2,
    /// Backoff timer running.
    Backoff = 3,
    /// Own data frame on the air.
    Transmitting = 4,
    /// Waiting for the ACK of the frame just sent.
    WaitAck = 5,
    /// Waiting for the CTS answering our RTS.
    WaitCts = 6,
}

/// The 802.11 DCF state machine for one station. Its parameters are the
/// simulator's, reached through [`MacHooks::config`]: a station keeps only
/// its own state.
#[derive(Debug)]
pub(crate) struct Mac {
    id: NodeId,
    queue: VecDeque<Frame>,
    state: MacState,
    /// Contention window for the frame in service.
    cw: u32,
    retries: u32,
    /// Remaining backoff slots (persists across freezing).
    backoff_slots: u32,
    /// Whether a backoff (rather than bare DIFS access) is required.
    need_backoff: bool,
    /// When the current backoff timer started (for freeze accounting).
    backoff_started: SimTime,
    /// Current DCF timer sequence; stale timer events are ignored.
    dcf_timer: u64,
    /// Monotone source of timer sequence numbers.
    next_timer: u64,
    /// Pending delayed control transmissions (ACK/CTS): `(timer_seq, frame)`.
    pending_acks: Vec<(u64, Frame)>,
    /// True while a control frame of ours (ACK/CTS) is on the air.
    sending_ack: bool,
    /// Cached *effective* busy state (physical carrier sense OR NAV).
    medium_busy: bool,
    /// Physical carrier-sense state as reported by the radio.
    phys_busy: bool,
    /// Virtual carrier sense: the medium is reserved until this instant.
    nav_until: SimTime,
    /// Timer guarding NAV expiry.
    nav_timer: u64,
    /// What our current `Transmitting` state is sending.
    tx_phase: TxPhase,
    /// Timer for the SIFS-spaced data transmission after a received CTS.
    pending_data_go: Option<u64>,
    stats: MacStats,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxPhase {
    Data,
    Rts,
}

impl Mac {
    /// A station in power-on state, whose contention window starts at
    /// `cw_min`.
    pub(crate) fn new(id: NodeId, cw_min: u32) -> Self {
        Mac {
            id,
            queue: VecDeque::new(),
            state: MacState::Idle,
            cw: cw_min,
            retries: 0,
            backoff_slots: 0,
            need_backoff: false,
            backoff_started: SimTime::ZERO,
            dcf_timer: 0,
            next_timer: 0,
            pending_acks: Vec::new(),
            sending_ack: false,
            medium_busy: false,
            phys_busy: false,
            nav_until: SimTime::ZERO,
            nav_timer: 0,
            tx_phase: TxPhase::Data,
            pending_data_go: None,
            stats: MacStats::default(),
        }
    }

    pub(crate) fn stats(&self) -> &MacStats {
        &self.stats
    }

    #[cfg(test)]
    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The node hosting this MAC crashed: abandon everything in service and
    /// return to a power-on state.
    ///
    /// The whole interface queue (including the head-of-line frame in
    /// service) is drained and its network-layer packets returned so the
    /// engine can give each a terminal `NodeDown` fate; pending delayed
    /// ACK/CTS transmissions, NAV state and carrier-sense caches are
    /// cleared; both DCF timers are re-allocated so every in-flight MAC
    /// timer event becomes stale. `next_timer` is *not* reset — its
    /// monotonicity is what makes pre-crash timer sequence numbers
    /// permanently invalid. Statistics survive the crash.
    pub(crate) fn crash_flush<O: SimObserver>(
        &mut self,
        hooks: &mut MacHooks<'_, O>,
    ) -> Vec<Packet> {
        let flushed: Vec<Packet> = self
            .queue
            .drain(..)
            .filter_map(|frame| frame.packet.map(Arc::unwrap_or_clone))
            .collect();
        self.set_state(hooks, MacState::Idle);
        self.cw = hooks.config.mac.cw_min;
        self.retries = 0;
        self.backoff_slots = 0;
        self.need_backoff = false;
        self.backoff_started = SimTime::ZERO;
        self.pending_acks.clear();
        self.sending_ack = false;
        self.medium_busy = false;
        self.phys_busy = false;
        self.nav_until = SimTime::ZERO;
        self.tx_phase = TxPhase::Data;
        self.pending_data_go = None;
        self.dcf_timer = self.alloc_timer();
        self.nav_timer = self.alloc_timer();
        flushed
    }

    /// Serialize the complete DCF state: interface queue, contention
    /// variables, timer sequence numbers (preserved exactly — queued
    /// `MacTimer` events refer to them), pending delayed control frames,
    /// carrier-sense caches and statistics. `id` and the parameters are
    /// configuration and are not captured.
    pub(crate) fn capture(
        &self,
        w: &mut WireWriter,
        codec: &dyn ControlCodec,
    ) -> Result<(), WireError> {
        w.put_usize(self.queue.len());
        for f in &self.queue {
            write_frame(w, f, codec)?;
        }
        w.put_u8(self.state as u8);
        w.put_u32(self.cw);
        w.put_u32(self.retries);
        w.put_u32(self.backoff_slots);
        w.put_bool(self.need_backoff);
        write_time(w, self.backoff_started);
        w.put_u64(self.dcf_timer);
        w.put_u64(self.next_timer);
        w.put_usize(self.pending_acks.len());
        for (seq, f) in &self.pending_acks {
            w.put_u64(*seq);
            write_frame(w, f, codec)?;
        }
        w.put_bool(self.sending_ack);
        w.put_bool(self.medium_busy);
        w.put_bool(self.phys_busy);
        write_time(w, self.nav_until);
        w.put_u64(self.nav_timer);
        w.put_bool(self.tx_phase == TxPhase::Rts);
        match self.pending_data_go {
            None => w.put_bool(false),
            Some(seq) => {
                w.put_bool(true);
                w.put_u64(seq);
            }
        }
        let s = &self.stats;
        for v in [
            s.data_tx,
            s.broadcast_tx,
            s.ack_tx,
            s.retries,
            s.retry_drops,
            s.queue_drops,
            s.data_rx,
            s.ack_rx,
            s.overheard,
            s.rts_tx,
            s.cts_tx,
            s.queue_hwm,
        ] {
            w.put_u64(v);
        }
        for v in s.backoff_hist {
            w.put_u64(v);
        }
        Ok(())
    }

    /// Rebuild the DCF state from a [`Mac::capture`] stream.
    pub(crate) fn restore(
        &mut self,
        r: &mut WireReader<'_>,
        codec: &dyn ControlCodec,
    ) -> Result<(), WireError> {
        self.queue.clear();
        let n = r.get_usize()?;
        for _ in 0..n {
            self.queue.push_back(read_frame(r, codec)?);
        }
        self.state = match r.get_u8()? {
            0 => MacState::Idle,
            1 => MacState::WaitIdle,
            2 => MacState::WaitDifs,
            3 => MacState::Backoff,
            4 => MacState::Transmitting,
            5 => MacState::WaitAck,
            6 => MacState::WaitCts,
            tag => {
                return Err(WireError::Malformed {
                    what: "mac state tag",
                    value: u64::from(tag),
                })
            }
        };
        self.cw = r.get_u32()?;
        self.retries = r.get_u32()?;
        self.backoff_slots = r.get_u32()?;
        self.need_backoff = r.get_bool()?;
        self.backoff_started = read_time(r)?;
        self.dcf_timer = r.get_u64()?;
        self.next_timer = r.get_u64()?;
        self.pending_acks.clear();
        let n = r.get_usize()?;
        for _ in 0..n {
            let seq = r.get_u64()?;
            let frame = read_frame(r, codec)?;
            self.pending_acks.push((seq, frame));
        }
        self.sending_ack = r.get_bool()?;
        self.medium_busy = r.get_bool()?;
        self.phys_busy = r.get_bool()?;
        self.nav_until = read_time(r)?;
        self.nav_timer = r.get_u64()?;
        self.tx_phase = if r.get_bool()? {
            TxPhase::Rts
        } else {
            TxPhase::Data
        };
        self.pending_data_go = if r.get_bool()? {
            Some(r.get_u64()?)
        } else {
            None
        };
        let s = &mut self.stats;
        s.data_tx = r.get_u64()?;
        s.broadcast_tx = r.get_u64()?;
        s.ack_tx = r.get_u64()?;
        s.retries = r.get_u64()?;
        s.retry_drops = r.get_u64()?;
        s.queue_drops = r.get_u64()?;
        s.data_rx = r.get_u64()?;
        s.ack_rx = r.get_u64()?;
        s.overheard = r.get_u64()?;
        s.rts_tx = r.get_u64()?;
        s.cts_tx = r.get_u64()?;
        s.queue_hwm = r.get_u64()?;
        for b in s.backoff_hist.iter_mut() {
            *b = r.get_u64()?;
        }
        Ok(())
    }

    /// Change DCF state, reporting the transition to the observer.
    fn set_state<O: SimObserver>(&mut self, hooks: &mut MacHooks<'_, O>, to: MacState) {
        if O::ENABLED && self.state != to {
            hooks
                .observer
                .on_mac_transition(hooks.now, self.id, self.state, to);
        }
        self.state = to;
    }

    /// Total air size of a data frame for `packet`.
    fn frame_size(params: &MacParams, packet: &Packet) -> u32 {
        packet.size_bytes + params.ip_overhead_bytes + params.mac_overhead_bytes
    }

    /// Accept a packet from the network layer for transmission to
    /// `next_hop` (or broadcast).
    pub(crate) fn enqueue_packet<O: SimObserver>(
        &mut self,
        hooks: &mut MacHooks<'_, O>,
        packet: Packet,
        next_hop: NodeId,
    ) {
        let params = &hooks.config.mac;
        if self.queue.len() >= params.queue_capacity {
            self.stats.queue_drops += 1;
            if packet.is_data() {
                hooks.drops.record(DropReason::QueueOverflow);
                if O::ENABLED {
                    hooks.observer.on_packet_dropped(
                        hooks.now,
                        self.id,
                        packet.uid,
                        DropReason::QueueOverflow,
                    );
                }
            }
            return;
        }
        let size = Self::frame_size(params, &packet);
        self.queue.push_back(Frame {
            mac_src: self.id,
            mac_dst: next_hop,
            kind: FrameKind::Data,
            size_bytes: size,
            packet: Some(Arc::new(packet)),
            ack_uid: 0,
            nav: std::time::Duration::ZERO,
        });
        self.stats.queue_hwm = self.stats.queue_hwm.max(self.queue.len() as u64);
        if self.state == MacState::Idle {
            self.start_service(hooks);
        }
    }

    /// Begin serving the head-of-line frame.
    fn start_service<O: SimObserver>(&mut self, hooks: &mut MacHooks<'_, O>) {
        if self.queue.is_empty() {
            self.set_state(hooks, MacState::Idle);
            return;
        }
        if self.medium_busy {
            self.set_state(hooks, MacState::WaitIdle);
            self.need_backoff = true;
        } else {
            self.start_difs(hooks);
        }
    }

    fn start_difs<O: SimObserver>(&mut self, hooks: &mut MacHooks<'_, O>) {
        self.set_state(hooks, MacState::WaitDifs);
        self.dcf_timer = self.alloc_timer();
        hooks.timers.push((hooks.config.mac.difs, self.dcf_timer));
    }

    fn alloc_timer(&mut self) -> u64 {
        self.next_timer += 1;
        self.next_timer
    }

    /// Draw a fresh backoff if none is pending.
    fn ensure_backoff_slots(&mut self, rng: &mut SimRng) {
        if self.backoff_slots == 0 {
            self.backoff_slots = rng.gen_range(0..=self.cw);
            let bucket = (u32::BITS - self.backoff_slots.leading_zeros()) as usize;
            self.stats.backoff_hist[bucket.min(MacStats::BACKOFF_BUCKETS - 1)] += 1;
        }
    }

    /// The medium transitioned to busy (physical carrier sense).
    pub(crate) fn on_medium_busy<O: SimObserver>(&mut self, hooks: &mut MacHooks<'_, O>) {
        self.phys_busy = true;
        self.reevaluate_busy(hooks);
    }

    /// The medium transitioned to idle (physical carrier sense).
    pub(crate) fn on_medium_idle<O: SimObserver>(&mut self, hooks: &mut MacHooks<'_, O>) {
        self.phys_busy = false;
        self.reevaluate_busy(hooks);
    }

    /// Reserve the medium (virtual carrier sense) for `dur` from now.
    fn set_nav<O: SimObserver>(&mut self, hooks: &mut MacHooks<'_, O>, dur: Duration) {
        if dur.is_zero() {
            return;
        }
        let until = hooks.now + dur;
        if until > self.nav_until {
            self.nav_until = until;
            self.nav_timer = self.alloc_timer();
            hooks.timers.push((dur, self.nav_timer));
            self.reevaluate_busy(hooks);
        }
    }

    /// Recompute the effective busy state and run the DCF transitions on a
    /// change.
    fn reevaluate_busy<O: SimObserver>(&mut self, hooks: &mut MacHooks<'_, O>) {
        let effective = self.phys_busy || self.nav_until > hooks.now;
        if effective == self.medium_busy {
            return;
        }
        self.medium_busy = effective;
        if effective {
            self.freeze(hooks);
        } else if self.state == MacState::WaitIdle {
            self.start_difs(hooks);
        }
    }

    /// The medium just became busy: abort DIFS / freeze backoff.
    fn freeze<O: SimObserver>(&mut self, hooks: &mut MacHooks<'_, O>) {
        match self.state {
            MacState::WaitDifs => {
                // Abort DIFS; a backoff is now mandatory.
                self.dcf_timer = self.alloc_timer(); // invalidate running timer
                self.need_backoff = true;
                self.set_state(hooks, MacState::WaitIdle);
            }
            MacState::Backoff => {
                // Freeze: compute how many whole slots elapsed.
                let elapsed = hooks.now.saturating_since(self.backoff_started);
                let done = (elapsed.as_nanos() / hooks.config.mac.slot.as_nanos()) as u32;
                self.backoff_slots = self.backoff_slots.saturating_sub(done);
                self.dcf_timer = self.alloc_timer();
                self.need_backoff = true;
                self.set_state(hooks, MacState::WaitIdle);
            }
            _ => {}
        }
    }

    /// A timer fired.
    pub(crate) fn on_timer<O: SimObserver>(&mut self, hooks: &mut MacHooks<'_, O>, seq: u64) {
        // Delayed control transmissions (ACK/CTS) are independent of the
        // DCF timer.
        if let Some(pos) = self.pending_acks.iter().position(|(s, _)| *s == seq) {
            let (_, frame) = self.pending_acks.remove(pos);
            match frame.kind {
                FrameKind::Cts => self.stats.cts_tx += 1,
                _ => self.stats.ack_tx += 1,
            }
            self.sending_ack = true;
            hooks.tx.push(frame);
            return;
        }
        // NAV expiry.
        if seq == self.nav_timer {
            self.reevaluate_busy(hooks);
            return;
        }
        // SIFS-spaced data transmission following a received CTS.
        if self.pending_data_go == Some(seq) {
            self.pending_data_go = None;
            self.transmit_data_now(hooks);
            return;
        }
        if seq != self.dcf_timer {
            return; // stale
        }
        match self.state {
            MacState::WaitDifs => {
                if self.need_backoff {
                    self.ensure_backoff_slots(hooks.rng);
                    if self.backoff_slots == 0 {
                        self.transmit_current(hooks);
                    } else {
                        self.set_state(hooks, MacState::Backoff);
                        self.backoff_started = hooks.now;
                        self.dcf_timer = self.alloc_timer();
                        let wait = hooks.config.mac.slot * self.backoff_slots;
                        hooks.timers.push((wait, self.dcf_timer));
                    }
                } else {
                    self.transmit_current(hooks);
                }
            }
            MacState::Backoff => {
                self.backoff_slots = 0;
                self.transmit_current(hooks);
            }
            MacState::WaitAck | MacState::WaitCts => {
                // ACK (or CTS) timeout.
                self.retries += 1;
                self.stats.retries += 1;
                if self.retries >= hooks.config.mac.retry_limit {
                    let frame = self.queue.pop_front().expect("frame in service");
                    self.stats.retry_drops += 1;
                    if let Some(packet) = frame.packet.map(Arc::unwrap_or_clone) {
                        hooks.upcalls.push(MacUpcall::TxFailed {
                            packet,
                            next_hop: frame.mac_dst,
                        });
                    }
                    self.reset_contention(hooks.config.mac.cw_min);
                    self.need_backoff = true;
                    self.start_service(hooks);
                } else {
                    // Exponential backoff and retry.
                    self.cw = ((self.cw + 1) * 2 - 1).min(hooks.config.mac.cw_max);
                    self.backoff_slots = 0;
                    self.need_backoff = true;
                    if self.medium_busy {
                        self.set_state(hooks, MacState::WaitIdle);
                    } else {
                        self.start_difs(hooks);
                    }
                }
            }
            _ => {}
        }
    }

    fn reset_contention(&mut self, cw_min: u32) {
        self.cw = cw_min;
        self.retries = 0;
        self.backoff_slots = 0;
    }

    fn transmit_current<O: SimObserver>(&mut self, hooks: &mut MacHooks<'_, O>) {
        let Some(frame) = self.queue.front() else {
            self.set_state(hooks, MacState::Idle);
            return;
        };
        let use_rts = !frame.mac_dst.is_broadcast()
            && hooks
                .config
                .mac
                .rts_threshold
                .is_some_and(|t| frame.size_bytes >= t);
        if use_rts {
            self.transmit_rts(hooks);
        } else {
            self.transmit_data_now(hooks);
        }
    }

    /// Put the head-of-line data frame itself on the air.
    fn transmit_data_now<O: SimObserver>(&mut self, hooks: &mut MacHooks<'_, O>) {
        let Some(mut frame) = self.queue.front().cloned() else {
            self.set_state(hooks, MacState::Idle);
            return;
        };
        // Protect the upcoming ACK via the duration field (only meaningful
        // when the handshake is enabled; harmless otherwise).
        let ScenarioConfig { mac, phy, .. } = hooks.config;
        if !frame.mac_dst.is_broadcast() && mac.rts_threshold.is_some() {
            frame.nav = mac.sifs + phy.control_frame_duration(mac.ack_size_bytes);
        }
        self.set_state(hooks, MacState::Transmitting);
        self.tx_phase = TxPhase::Data;
        self.stats.data_tx += 1;
        if frame.mac_dst.is_broadcast() {
            self.stats.broadcast_tx += 1;
        }
        hooks.tx.push(frame);
    }

    /// Open the RTS/CTS handshake for the head-of-line frame.
    fn transmit_rts<O: SimObserver>(&mut self, hooks: &mut MacHooks<'_, O>) {
        let Some(data) = self.queue.front() else {
            self.set_state(hooks, MacState::Idle);
            return;
        };
        let ScenarioConfig { mac, phy, .. } = hooks.config;
        let sifs = mac.sifs;
        let cts = phy.control_frame_duration(mac.cts_size_bytes);
        let data_dur = phy.data_frame_duration(data.size_bytes);
        let ack = phy.control_frame_duration(mac.ack_size_bytes);
        let rts = Frame {
            mac_src: self.id,
            mac_dst: data.mac_dst,
            kind: FrameKind::Rts,
            size_bytes: mac.rts_size_bytes,
            packet: None,
            ack_uid: data.packet.as_ref().map_or(0, |p| p.uid),
            // Reserve the whole remaining exchange: CTS + DATA + ACK.
            nav: sifs + cts + sifs + data_dur + sifs + ack,
        };
        self.set_state(hooks, MacState::Transmitting);
        self.tx_phase = TxPhase::Rts;
        self.stats.rts_tx += 1;
        hooks.tx.push(rts);
    }

    /// Our own transmission just left the antenna completely.
    pub(crate) fn on_tx_end<O: SimObserver>(&mut self, hooks: &mut MacHooks<'_, O>) {
        if self.sending_ack {
            self.sending_ack = false;
            return;
        }
        if self.state != MacState::Transmitting {
            return;
        }
        if self.tx_phase == TxPhase::Rts {
            // Our RTS is out; await the CTS.
            self.set_state(hooks, MacState::WaitCts);
            self.dcf_timer = self.alloc_timer();
            let ScenarioConfig { mac, phy, .. } = hooks.config;
            let timeout = mac.sifs + phy.control_frame_duration(mac.cts_size_bytes) + mac.slot;
            hooks.timers.push((timeout, self.dcf_timer));
            return;
        }
        let frame = self.queue.front().expect("frame in service");
        if frame.mac_dst.is_broadcast() {
            // Broadcast: fire and forget.
            let frame = self.queue.pop_front().expect("frame in service");
            if let Some(packet) = frame.packet.map(Arc::unwrap_or_clone) {
                hooks.upcalls.push(MacUpcall::TxOk {
                    packet,
                    next_hop: NodeId::BROADCAST,
                });
            }
            self.reset_contention(hooks.config.mac.cw_min);
            self.need_backoff = true;
            self.start_service(hooks);
        } else {
            // Unicast: await the ACK.
            self.set_state(hooks, MacState::WaitAck);
            self.dcf_timer = self.alloc_timer();
            let ScenarioConfig { mac, phy, .. } = hooks.config;
            let timeout = mac.sifs + phy.control_frame_duration(mac.ack_size_bytes) + mac.slot;
            hooks.timers.push((timeout, self.dcf_timer));
        }
    }

    /// A frame was successfully decoded by our radio.
    pub(crate) fn on_frame_received<O: SimObserver>(
        &mut self,
        hooks: &mut MacHooks<'_, O>,
        frame: Frame,
    ) {
        match frame.kind {
            FrameKind::Data => {
                if !frame.addressed_to(self.id) {
                    self.stats.overheard += 1;
                    // Respect the duration field (protects the ACK when the
                    // RTS/CTS handshake is in use).
                    self.set_nav(hooks, frame.nav);
                    return;
                }
                self.stats.data_rx += 1;
                if frame.mac_dst == self.id {
                    // Schedule the ACK a SIFS later.
                    let seq = self.alloc_timer();
                    let ack = Frame {
                        mac_src: self.id,
                        mac_dst: frame.mac_src,
                        kind: FrameKind::Ack,
                        size_bytes: hooks.config.mac.ack_size_bytes,
                        packet: None,
                        ack_uid: frame.packet.as_ref().map_or(0, |p| p.uid),
                        nav: Duration::ZERO,
                    };
                    self.pending_acks.push((seq, ack));
                    hooks.timers.push((hooks.config.mac.sifs, seq));
                }
                if let Some(packet) = frame.packet.map(Arc::unwrap_or_clone) {
                    hooks.upcalls.push(MacUpcall::Deliver {
                        packet,
                        from: frame.mac_src,
                    });
                }
            }
            FrameKind::Rts => {
                if frame.mac_dst != self.id {
                    // Third party: the exchange reserves the medium.
                    self.set_nav(hooks, frame.nav);
                    return;
                }
                // Answer with a CTS one SIFS later, carrying the remaining
                // reservation.
                let ScenarioConfig { mac, phy, .. } = hooks.config;
                let sifs = mac.sifs;
                let cts_dur = phy.control_frame_duration(mac.cts_size_bytes);
                let remaining = frame.nav.saturating_sub(sifs + cts_dur);
                let seq = self.alloc_timer();
                let cts = Frame {
                    mac_src: self.id,
                    mac_dst: frame.mac_src,
                    kind: FrameKind::Cts,
                    size_bytes: mac.cts_size_bytes,
                    packet: None,
                    ack_uid: frame.ack_uid,
                    nav: remaining,
                };
                self.pending_acks.push((seq, cts));
                hooks.timers.push((sifs, seq));
            }
            FrameKind::Cts => {
                if frame.mac_dst != self.id {
                    self.set_nav(hooks, frame.nav);
                    return;
                }
                if self.state != MacState::WaitCts {
                    return;
                }
                let expected_uid = self
                    .queue
                    .front()
                    .and_then(|f| f.packet.as_ref())
                    .map_or(0, |p| p.uid);
                if frame.ack_uid != expected_uid {
                    return;
                }
                // Handshake granted: cancel the CTS timeout and send the
                // data a SIFS later.
                self.dcf_timer = self.alloc_timer();
                let seq = self.alloc_timer();
                self.pending_data_go = Some(seq);
                hooks.timers.push((hooks.config.mac.sifs, seq));
            }
            FrameKind::Ack => {
                if frame.mac_dst != self.id || self.state != MacState::WaitAck {
                    return;
                }
                let expected_uid = self
                    .queue
                    .front()
                    .and_then(|f| f.packet.as_ref())
                    .map_or(0, |p| p.uid);
                if frame.ack_uid != expected_uid {
                    return;
                }
                self.stats.ack_rx += 1;
                self.dcf_timer = self.alloc_timer(); // cancel the ACK timeout
                let done = self.queue.pop_front().expect("frame in service");
                if let Some(packet) = done.packet.map(Arc::unwrap_or_clone) {
                    hooks.upcalls.push(MacUpcall::TxOk {
                        packet,
                        next_hop: done.mac_dst,
                    });
                }
                self.reset_contention(hooks.config.mac.cw_min);
                self.need_backoff = true;
                self.start_service(hooks);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowId;

    struct Harness {
        mac: Mac,
        rng: SimRng,
        now: SimTime,
        timers: Vec<(Duration, u64)>,
        tx: Vec<Frame>,
        upcalls: Vec<MacUpcall>,
        drops: DropCounts,
        obs: NoopObserver,
        config: ScenarioConfig,
    }

    impl Harness {
        fn new() -> Self {
            Harness {
                mac: Mac::new(NodeId(0), MacParams::default().cw_min),
                rng: SimRng::seed_from_u64(7),
                now: SimTime::ZERO,
                timers: Vec::new(),
                tx: Vec::new(),
                upcalls: Vec::new(),
                drops: DropCounts::default(),
                obs: NoopObserver,
                config: ScenarioConfig::default(),
            }
        }

        fn with<R>(&mut self, f: impl FnOnce(&mut Mac, &mut MacHooks<'_>) -> R) -> R {
            let mut hooks = MacHooks {
                now: self.now,
                rng: &mut self.rng,
                timers: &mut self.timers,
                tx: &mut self.tx,
                upcalls: &mut self.upcalls,
                drops: &mut self.drops,
                observer: &mut self.obs,
                config: &self.config,
            };
            f(&mut self.mac, &mut hooks)
        }

        /// Fire the single pending timer, advancing time by its delay.
        fn fire_timer(&mut self) {
            let (delay, seq) = self.timers.remove(0);
            self.now += delay;
            self.with(|mac, hooks| mac.on_timer(hooks, seq));
        }

        /// Drive until a frame is on the air or nothing is pending.
        fn run_to_tx(&mut self) -> Frame {
            for _ in 0..64 {
                if let Some(f) = self.tx.pop() {
                    return f;
                }
                assert!(!self.timers.is_empty(), "MAC stalled with no timers");
                self.fire_timer();
            }
            panic!("MAC never transmitted");
        }
    }

    fn data_packet(dst: NodeId) -> Packet {
        let mut p = Packet::data(FlowId::new(NodeId(0), dst, 0), 1, 512, SimTime::ZERO);
        p.uid = 99;
        p
    }

    #[test]
    fn broadcast_is_sent_after_difs_without_ack() {
        let mut h = Harness::new();
        h.with(|mac, hooks| {
            mac.enqueue_packet(hooks, data_packet(NodeId::BROADCAST), NodeId::BROADCAST)
        });
        assert_eq!(h.timers.len(), 1, "DIFS timer expected");
        assert_eq!(h.timers[0].0, Duration::from_micros(50));
        let frame = h.run_to_tx();
        assert!(frame.mac_dst.is_broadcast());
        // Completion: no ACK wait.
        h.with(|mac, hooks| mac.on_tx_end(hooks));
        assert!(matches!(h.upcalls[0], MacUpcall::TxOk { .. }));
        assert_eq!(h.mac.stats().broadcast_tx, 1);
    }

    #[test]
    fn unicast_waits_for_ack_then_succeeds() {
        let mut h = Harness::new();
        h.with(|mac, hooks| mac.enqueue_packet(hooks, data_packet(NodeId(1)), NodeId(1)));
        let frame = h.run_to_tx();
        assert_eq!(frame.mac_dst, NodeId(1));
        h.with(|mac, hooks| mac.on_tx_end(hooks));
        // An ACK timeout is now pending.
        assert_eq!(h.timers.len(), 1);
        // Deliver a matching ACK before the timeout.
        let ack = Frame {
            mac_src: NodeId(1),
            mac_dst: NodeId(0),
            kind: FrameKind::Ack,
            size_bytes: 14,
            packet: None,
            ack_uid: 99,
            nav: std::time::Duration::ZERO,
        };
        h.with(|mac, hooks| mac.on_frame_received(hooks, ack));
        assert_eq!(h.mac.stats().ack_rx, 1);
        assert!(h
            .upcalls
            .iter()
            .any(|u| matches!(u, MacUpcall::TxOk { next_hop, .. } if *next_hop == NodeId(1))));
        assert_eq!(h.mac.queue_len(), 0);
    }

    #[test]
    fn unicast_retries_then_fails() {
        let mut h = Harness::new();
        h.with(|mac, hooks| mac.enqueue_packet(hooks, data_packet(NodeId(1)), NodeId(1)));
        let mut attempts = 0;
        // Let every ACK timeout expire.
        for _ in 0..100 {
            if h.upcalls
                .iter()
                .any(|u| matches!(u, MacUpcall::TxFailed { .. }))
            {
                break;
            }
            if let Some(_f) = h.tx.pop() {
                attempts += 1;
                h.with(|mac, hooks| mac.on_tx_end(hooks));
                continue;
            }
            if h.timers.is_empty() {
                break;
            }
            h.fire_timer();
        }
        assert_eq!(attempts, 7, "retry limit is 7 attempts");
        assert_eq!(h.mac.stats().retry_drops, 1);
        assert!(h
            .upcalls
            .iter()
            .any(|u| matches!(u, MacUpcall::TxFailed { next_hop, .. } if *next_hop == NodeId(1))));
    }

    #[test]
    fn contention_window_doubles_on_retry() {
        let mut h = Harness::new();
        h.with(|mac, hooks| mac.enqueue_packet(hooks, data_packet(NodeId(1)), NodeId(1)));
        assert_eq!(h.mac.cw, 31);
        let _ = h.run_to_tx();
        h.with(|mac, hooks| mac.on_tx_end(hooks));
        h.fire_timer(); // ACK timeout
        assert_eq!(h.mac.cw, 63);
        let _ = h.run_to_tx();
        h.with(|mac, hooks| mac.on_tx_end(hooks));
        h.fire_timer();
        assert_eq!(h.mac.cw, 127);
    }

    #[test]
    fn queue_overflow_drops() {
        let mut h = Harness::new();
        for _ in 0..60 {
            h.with(|mac, hooks| mac.enqueue_packet(hooks, data_packet(NodeId(1)), NodeId(1)));
        }
        assert_eq!(h.mac.queue_len(), 50);
        assert_eq!(h.mac.stats().queue_drops, 10);
    }

    #[test]
    fn busy_medium_defers_access() {
        let mut h = Harness::new();
        h.with(|mac, hooks| mac.on_medium_busy(hooks));
        h.with(|mac, hooks| {
            mac.enqueue_packet(hooks, data_packet(NodeId::BROADCAST), NodeId::BROADCAST)
        });
        assert!(h.timers.is_empty(), "no access while busy");
        h.with(|mac, hooks| mac.on_medium_idle(hooks));
        assert_eq!(h.timers.len(), 1, "DIFS after idle");
        // After DIFS a random backoff must follow (medium had been busy).
        h.fire_timer();
        assert!(h.tx.is_empty() || h.mac.backoff_slots == 0);
    }

    #[test]
    fn backoff_freezes_and_resumes() {
        let mut h = Harness::new();
        // Force a deferral so a backoff is drawn.
        h.with(|mac, hooks| mac.on_medium_busy(hooks));
        h.with(|mac, hooks| {
            mac.enqueue_packet(hooks, data_packet(NodeId::BROADCAST), NodeId::BROADCAST)
        });
        h.with(|mac, hooks| mac.on_medium_idle(hooks));
        h.fire_timer(); // DIFS done → backoff scheduled (or instant tx)
        if h.tx.is_empty() {
            let before = h.mac.backoff_slots;
            assert!(before > 0);
            // Freeze mid-backoff after 1 slot of progress.
            h.now += Duration::from_micros(20);
            h.with(|mac, hooks| mac.on_medium_busy(hooks));
            assert_eq!(h.mac.backoff_slots, before - 1);
            // Resume.
            h.with(|mac, hooks| mac.on_medium_idle(hooks));
            let f = h.run_to_tx();
            assert!(f.mac_dst.is_broadcast());
        }
    }

    #[test]
    fn received_data_is_delivered_and_acked() {
        let mut h = Harness::new();
        let mut p = data_packet(NodeId(0));
        p.uid = 42;
        let frame = Frame {
            mac_src: NodeId(5),
            mac_dst: NodeId(0),
            kind: FrameKind::Data,
            size_bytes: 560,
            packet: Some(Arc::new(p)),
            ack_uid: 0,
            nav: std::time::Duration::ZERO,
        };
        h.with(|mac, hooks| mac.on_frame_received(hooks, frame));
        assert!(matches!(h.upcalls[0], MacUpcall::Deliver { from, .. } if from == NodeId(5)));
        // ACK scheduled a SIFS later.
        assert_eq!(h.timers.len(), 1);
        assert_eq!(h.timers[0].0, Duration::from_micros(10));
        h.fire_timer();
        let ack = h.tx.pop().expect("ACK on air");
        assert_eq!(ack.kind, FrameKind::Ack);
        assert_eq!(ack.mac_dst, NodeId(5));
        assert_eq!(ack.ack_uid, 42);
        assert_eq!(h.mac.stats().ack_tx, 1);
    }

    #[test]
    fn broadcast_reception_is_not_acked() {
        let mut h = Harness::new();
        let frame = Frame {
            mac_src: NodeId(5),
            mac_dst: NodeId::BROADCAST,
            kind: FrameKind::Data,
            size_bytes: 100,
            packet: Some(Arc::new(data_packet(NodeId::BROADCAST))),
            ack_uid: 0,
            nav: std::time::Duration::ZERO,
        };
        h.with(|mac, hooks| mac.on_frame_received(hooks, frame));
        assert!(h.timers.is_empty(), "no ACK for broadcast");
        assert_eq!(h.mac.stats().data_rx, 1);
    }

    #[test]
    fn frames_for_others_are_ignored() {
        let mut h = Harness::new();
        let frame = Frame {
            mac_src: NodeId(5),
            mac_dst: NodeId(9),
            kind: FrameKind::Data,
            size_bytes: 100,
            packet: Some(Arc::new(data_packet(NodeId(9)))),
            ack_uid: 0,
            nav: std::time::Duration::ZERO,
        };
        h.with(|mac, hooks| mac.on_frame_received(hooks, frame));
        assert!(h.upcalls.is_empty());
        assert_eq!(h.mac.stats().overheard, 1);
    }

    #[test]
    fn mismatched_ack_uid_is_ignored() {
        let mut h = Harness::new();
        h.with(|mac, hooks| mac.enqueue_packet(hooks, data_packet(NodeId(1)), NodeId(1)));
        let _ = h.run_to_tx();
        h.with(|mac, hooks| mac.on_tx_end(hooks));
        let bad_ack = Frame {
            mac_src: NodeId(1),
            mac_dst: NodeId(0),
            kind: FrameKind::Ack,
            size_bytes: 14,
            packet: None,
            ack_uid: 12345,
            nav: std::time::Duration::ZERO,
        };
        h.with(|mac, hooks| mac.on_frame_received(hooks, bad_ack));
        assert_eq!(h.mac.stats().ack_rx, 0);
        assert_eq!(h.mac.queue_len(), 1, "frame still in service");
    }

    #[test]
    fn stale_timers_are_ignored() {
        let mut h = Harness::new();
        h.with(|mac, hooks| {
            mac.enqueue_packet(hooks, data_packet(NodeId::BROADCAST), NodeId::BROADCAST)
        });
        let (_, old_seq) = h.timers[0];
        // Medium busy invalidates the DIFS timer.
        h.with(|mac, hooks| mac.on_medium_busy(hooks));
        h.with(|mac, hooks| mac.on_timer(hooks, old_seq));
        assert!(h.tx.is_empty(), "stale DIFS must not trigger a transmit");
    }

    #[test]
    fn back_to_back_packets_are_both_sent() {
        let mut h = Harness::new();
        h.with(|mac, hooks| {
            mac.enqueue_packet(hooks, data_packet(NodeId::BROADCAST), NodeId::BROADCAST)
        });
        h.with(|mac, hooks| {
            mac.enqueue_packet(hooks, data_packet(NodeId::BROADCAST), NodeId::BROADCAST)
        });
        let _f1 = h.run_to_tx();
        h.with(|mac, hooks| mac.on_tx_end(hooks));
        let _f2 = h.run_to_tx();
        h.with(|mac, hooks| mac.on_tx_end(hooks));
        assert_eq!(h.mac.stats().data_tx, 2);
        assert_eq!(h.mac.queue_len(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::FlowId;
    use proptest::prelude::*;

    /// Random sequences of MAC stimuli must never panic, never leave a
    /// negative queue, and never transmit while the medium is known busy
    /// without having been in Transmitting state already.
    #[derive(Debug, Clone)]
    enum Stimulus {
        Enqueue(bool), // broadcast?
        MediumBusy,
        MediumIdle,
        FireTimer,
        TxEnd,
        RxAck,
    }

    fn stimulus_strategy() -> impl Strategy<Value = Stimulus> {
        prop_oneof![
            any::<bool>().prop_map(Stimulus::Enqueue),
            Just(Stimulus::MediumBusy),
            Just(Stimulus::MediumIdle),
            Just(Stimulus::FireTimer),
            Just(Stimulus::TxEnd),
            Just(Stimulus::RxAck),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn mac_never_panics_or_leaks(
            stimuli in prop::collection::vec(stimulus_strategy(), 1..120),
            seed in any::<u64>(),
        ) {
            let config = ScenarioConfig::default();
            let mut mac = Mac::new(NodeId(0), config.mac.cw_min);
            let mut rng = SimRng::seed_from_u64(seed);
            let mut now = SimTime::ZERO;
            let mut timers: Vec<(Duration, u64)> = Vec::new();
            let mut tx: Vec<Frame> = Vec::new();
            let mut upcalls = Vec::new();
            let mut drops = DropCounts::default();
            let mut obs = NoopObserver;
            let mut uid = 1u64;
            let mut enqueued = 0u64;

            for s in stimuli {
                now += Duration::from_micros(100);
                let mut hooks = MacHooks {
                    now,
                    rng: &mut rng,
                    timers: &mut timers,
                    tx: &mut tx,
                    upcalls: &mut upcalls,
                    drops: &mut drops,
                    observer: &mut obs,
                    config: &config,
                };
                match s {
                    Stimulus::Enqueue(bcast) => {
                        let dst = if bcast { NodeId::BROADCAST } else { NodeId(1) };
                        let mut p = Packet::data(FlowId::new(NodeId(0), dst, 0), 0, 100, now);
                        p.uid = uid;
                        uid += 1;
                        mac.enqueue_packet(&mut hooks, p, dst);
                        enqueued += 1;
                    }
                    Stimulus::MediumBusy => mac.on_medium_busy(&mut hooks),
                    Stimulus::MediumIdle => mac.on_medium_idle(&mut hooks),
                    Stimulus::FireTimer => {
                        // Fire the oldest pending timer if any.
                        if !hooks.timers.is_empty() {
                            let (_, seq) = hooks.timers.remove(0);
                            mac.on_timer(&mut hooks, seq);
                        }
                    }
                    Stimulus::TxEnd => mac.on_tx_end(&mut hooks),
                    Stimulus::RxAck => {
                        let ack = Frame {
                            mac_src: NodeId(1),
                            mac_dst: NodeId(0),
                            kind: FrameKind::Ack,
                            size_bytes: 14,
                            packet: None,
                            ack_uid: uid.saturating_sub(1),
                            nav: std::time::Duration::ZERO,
                        };
                        mac.on_frame_received(&mut hooks, ack);
                    }
                }
                prop_assert!(mac.queue_len() <= MacParams::default().queue_capacity);
            }
            // Conservation: everything enqueued is still queued, was
            // delivered (TxOk), failed (TxFailed), or was dropped at the
            // full queue.
            let completed = upcalls
                .iter()
                .filter(|u| matches!(u, MacUpcall::TxOk { .. } | MacUpcall::TxFailed { .. }))
                .count() as u64;
            let stats = mac.stats();
            prop_assert_eq!(
                enqueued,
                completed + mac.queue_len() as u64 + stats.queue_drops
            );
        }
    }
}

#[cfg(test)]
mod rts_cts_tests {
    use super::*;
    use crate::FlowId;

    struct Harness {
        mac: Mac,
        rng: SimRng,
        now: SimTime,
        timers: Vec<(Duration, u64)>,
        tx: Vec<Frame>,
        upcalls: Vec<MacUpcall>,
        drops: DropCounts,
        obs: NoopObserver,
        config: ScenarioConfig,
    }

    impl Harness {
        fn with_rts(threshold: u32) -> Self {
            let mut config = ScenarioConfig::default();
            config.mac.rts_threshold = Some(threshold);
            Harness {
                mac: Mac::new(NodeId(0), config.mac.cw_min),
                rng: SimRng::seed_from_u64(7),
                now: SimTime::ZERO,
                timers: Vec::new(),
                tx: Vec::new(),
                upcalls: Vec::new(),
                drops: DropCounts::default(),
                obs: NoopObserver,
                config,
            }
        }

        fn with<R>(&mut self, f: impl FnOnce(&mut Mac, &mut MacHooks<'_>) -> R) -> R {
            let mut hooks = MacHooks {
                now: self.now,
                rng: &mut self.rng,
                timers: &mut self.timers,
                tx: &mut self.tx,
                upcalls: &mut self.upcalls,
                drops: &mut self.drops,
                observer: &mut self.obs,
                config: &self.config,
            };
            f(&mut self.mac, &mut hooks)
        }

        fn fire_timer(&mut self) {
            let (delay, seq) = self.timers.remove(0);
            self.now += delay;
            self.with(|mac, hooks| mac.on_timer(hooks, seq));
        }

        fn run_to_tx(&mut self) -> Frame {
            for _ in 0..64 {
                if let Some(f) = self.tx.pop() {
                    return f;
                }
                assert!(!self.timers.is_empty(), "MAC stalled");
                self.fire_timer();
            }
            panic!("MAC never transmitted");
        }
    }

    fn big_packet(dst: NodeId) -> Packet {
        let mut p = Packet::data(FlowId::new(NodeId(0), dst, 0), 1, 512, SimTime::ZERO);
        p.uid = 77;
        p
    }

    #[test]
    fn large_unicast_opens_with_rts() {
        let mut h = Harness::with_rts(100);
        h.with(|mac, hooks| mac.enqueue_packet(hooks, big_packet(NodeId(1)), NodeId(1)));
        let frame = h.run_to_tx();
        assert_eq!(frame.kind, FrameKind::Rts);
        assert_eq!(frame.mac_dst, NodeId(1));
        assert_eq!(frame.ack_uid, 77);
        assert!(frame.nav > Duration::ZERO, "RTS must reserve the exchange");
        assert_eq!(h.mac.stats().rts_tx, 1);
    }

    #[test]
    fn small_frames_skip_the_handshake() {
        let mut h = Harness::with_rts(10_000);
        h.with(|mac, hooks| mac.enqueue_packet(hooks, big_packet(NodeId(1)), NodeId(1)));
        let frame = h.run_to_tx();
        assert_eq!(frame.kind, FrameKind::Data);
        assert_eq!(h.mac.stats().rts_tx, 0);
    }

    #[test]
    fn broadcast_never_uses_rts() {
        let mut h = Harness::with_rts(1);
        h.with(|mac, hooks| {
            mac.enqueue_packet(hooks, big_packet(NodeId::BROADCAST), NodeId::BROADCAST)
        });
        let frame = h.run_to_tx();
        assert_eq!(frame.kind, FrameKind::Data);
    }

    #[test]
    fn full_handshake_rts_cts_data_ack() {
        let mut h = Harness::with_rts(100);
        h.with(|mac, hooks| mac.enqueue_packet(hooks, big_packet(NodeId(1)), NodeId(1)));
        let rts = h.run_to_tx();
        assert_eq!(rts.kind, FrameKind::Rts);
        h.with(|mac, hooks| mac.on_tx_end(hooks));
        // Peer answers with a CTS.
        let cts = Frame {
            mac_src: NodeId(1),
            mac_dst: NodeId(0),
            kind: FrameKind::Cts,
            size_bytes: 14,
            packet: None,
            ack_uid: 77,
            nav: Duration::from_millis(3),
        };
        h.with(|mac, hooks| mac.on_frame_received(hooks, cts));
        // Data goes out a SIFS later.
        let data = h.run_to_tx();
        assert_eq!(data.kind, FrameKind::Data);
        h.with(|mac, hooks| mac.on_tx_end(hooks));
        // ACK completes the exchange.
        let ack = Frame {
            mac_src: NodeId(1),
            mac_dst: NodeId(0),
            kind: FrameKind::Ack,
            size_bytes: 14,
            packet: None,
            ack_uid: 77,
            nav: Duration::ZERO,
        };
        h.with(|mac, hooks| mac.on_frame_received(hooks, ack));
        assert_eq!(h.mac.queue_len(), 0);
        assert!(h
            .upcalls
            .iter()
            .any(|u| matches!(u, MacUpcall::TxOk { .. })));
    }

    #[test]
    fn cts_timeout_retries() {
        let mut h = Harness::with_rts(100);
        h.with(|mac, hooks| mac.enqueue_packet(hooks, big_packet(NodeId(1)), NodeId(1)));
        let _rts = h.run_to_tx();
        h.with(|mac, hooks| mac.on_tx_end(hooks));
        // Let the CTS timeout expire.
        h.fire_timer();
        assert_eq!(h.mac.stats().retries, 1);
        // A new attempt (another RTS) eventually goes out.
        let again = h.run_to_tx();
        assert_eq!(again.kind, FrameKind::Rts);
    }

    #[test]
    fn receiver_answers_rts_with_cts() {
        let mut h = Harness::with_rts(100);
        let rts = Frame {
            mac_src: NodeId(5),
            mac_dst: NodeId(0),
            kind: FrameKind::Rts,
            size_bytes: 20,
            packet: None,
            ack_uid: 42,
            nav: Duration::from_millis(3),
        };
        h.with(|mac, hooks| mac.on_frame_received(hooks, rts));
        assert_eq!(h.timers.len(), 1, "CTS scheduled after SIFS");
        h.fire_timer();
        let cts = h.tx.pop().expect("CTS on air");
        assert_eq!(cts.kind, FrameKind::Cts);
        assert_eq!(cts.mac_dst, NodeId(5));
        assert_eq!(cts.ack_uid, 42);
        assert!(
            cts.nav < Duration::from_millis(3),
            "NAV shrinks along the chain"
        );
        assert_eq!(h.mac.stats().cts_tx, 1);
    }

    #[test]
    fn third_party_rts_sets_nav() {
        let mut h = Harness::with_rts(100);
        // Overhear an RTS for someone else: our queued frame must defer
        // until the NAV expires even though the physical medium is idle.
        let rts = Frame {
            mac_src: NodeId(5),
            mac_dst: NodeId(6),
            kind: FrameKind::Rts,
            size_bytes: 20,
            packet: None,
            ack_uid: 0,
            nav: Duration::from_millis(5),
        };
        h.with(|mac, hooks| mac.on_frame_received(hooks, rts));
        h.with(|mac, hooks| mac.enqueue_packet(hooks, big_packet(NodeId(1)), NodeId(1)));
        // The only DCF-relevant timer now is the NAV expiry (5 ms); nothing
        // may hit the air before it.
        let mut sent_early = false;
        while !h.timers.is_empty() {
            let (delay, _) = h.timers[0];
            if h.now + delay > SimTime::ZERO + Duration::from_millis(5) && !h.tx.is_empty() {
                break;
            }
            if !h.tx.is_empty() && h.now < SimTime::ZERO + Duration::from_millis(5) {
                sent_early = true;
                break;
            }
            h.fire_timer();
            if !h.tx.is_empty() && h.now < SimTime::ZERO + Duration::from_millis(5) {
                sent_early = true;
                break;
            }
        }
        assert!(!sent_early, "transmission violated the NAV");
    }

    #[test]
    fn end_to_end_with_rts_enabled() {
        use crate::{ScenarioConfig, Simulator, StaticMobility};
        // Two nodes exchanging CBR-sized unicast with the handshake on:
        // delivery still works, and RTS/CTS frames flow.
        use crate::{Application, NodeApi};
        use std::cell::RefCell;
        use std::rc::Rc;

        struct Src {
            sent: u32,
        }
        impl Application for Src {
            fn start(&mut self, api: &mut NodeApi<'_>) {
                api.schedule(Duration::from_millis(10), 0);
            }
            fn handle_timer(&mut self, api: &mut NodeApi<'_>, _t: u64) {
                let flow = FlowId::new(api.id(), NodeId(1), 0);
                api.originate(Packet::data(flow, self.sent, 512, api.now()));
                self.sent += 1;
                if self.sent < 20 {
                    api.schedule(Duration::from_millis(20), 0);
                }
            }
        }
        struct Sink {
            got: Rc<RefCell<u32>>,
        }
        impl Application for Sink {
            fn handle_packet(&mut self, _api: &mut NodeApi<'_>, _p: &Packet) {
                *self.got.borrow_mut() += 1;
            }
        }

        let got = Rc::new(RefCell::new(0u32));
        let config = ScenarioConfig {
            mac: MacParams {
                rts_threshold: Some(0),
                ..MacParams::default()
            },
            ..ScenarioConfig::default()
        };
        let mut sim = Simulator::builder(config)
            .nodes(2)
            .mobility(Box::new(StaticMobility::line(2, 150.0)))
            .app(0, Box::new(Src { sent: 0 }))
            .app(
                1,
                Box::new(Sink {
                    got: Rc::clone(&got),
                }),
            )
            .build();
        sim.run_until_secs(2.0);
        assert_eq!(*got.borrow(), 20, "all packets delivered under RTS/CTS");
        assert_eq!(sim.mac_stats(0).rts_tx as u32, 20);
        assert_eq!(sim.mac_stats(1).cts_tx as u32, 20);
    }
}
