//! Liveness probing of a running simulation, for external watchdogs.
//!
//! A long campaign needs to distinguish "this trial is slow" from "this
//! trial is wedged". The engine itself cannot tell — a protocol stuck in a
//! timer loop still looks like a running simulation from the outside. The
//! [`ProgressProbe`] observer closes that gap: it is a [`SimObserver`]
//! that publishes a heartbeat (the number of engine events dispatched so
//! far) into a shared, thread-safe [`ProgressHandle`] every `stride`
//! events. A supervisor thread polls the handle; a heartbeat that stops
//! advancing past a deadline is a stalled trial.
//!
//! The handle is also the cancellation path. The supervisor raises a
//! [`CancelSignal`] on the handle; the probe checks it at every heartbeat
//! and, for [`CancelSignal::Stall`], unwinds the trial by panicking with
//! the typed [`TrialCancelled`] payload. The driving thread catches the
//! unwind (`std::panic::catch_unwind`), downcasts the payload, and knows
//! the abort was a supervised cancellation rather than an engine bug.
//! [`CancelSignal::Shutdown`] is deliberately *not* acted on by the probe:
//! graceful shutdown is handled between run slices by the campaign driver
//! (which wants to checkpoint first), not by unwinding mid-event.
//!
//! Like every observer, the probe is digest-proof: it perturbs nothing the
//! engine does, it only reads the event stream. Its per-event cost is a
//! local increment and a countdown; the atomic store and signal load
//! happen once per `stride` events.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use crate::observer::{EventKind, SimObserver};
use crate::time::SimTime;

/// Cancellation state of a supervised trial, raised by a watchdog through
/// [`ProgressHandle::cancel`] and observed by the trial's [`ProgressProbe`]
/// (for [`Stall`](CancelSignal::Stall)) or its driving loop (for
/// [`Shutdown`](CancelSignal::Shutdown)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum CancelSignal {
    /// No cancellation requested; the trial keeps running.
    Run = 0,
    /// The watchdog declared the trial stalled: the probe unwinds with
    /// [`TrialCancelled`] at its next heartbeat.
    Stall = 1,
    /// The server is shutting down: the driving loop should checkpoint at
    /// the next slice boundary and stop. The probe keeps beating.
    Shutdown = 2,
}

impl CancelSignal {
    fn from_u8(v: u8) -> CancelSignal {
        match v {
            1 => CancelSignal::Stall,
            2 => CancelSignal::Shutdown,
            _ => CancelSignal::Run,
        }
    }
}

/// The typed panic payload of a watchdog cancellation.
///
/// A supervisor that catches an unwound trial downcasts the payload to
/// this type to tell "the watchdog cancelled it" apart from "the trial
/// panicked on its own":
///
/// ```
/// use cavenet_net::TrialCancelled;
/// let caught = std::panic::catch_unwind(|| {
///     std::panic::panic_any(TrialCancelled);
/// });
/// let payload = caught.unwrap_err();
/// assert!(payload.is::<TrialCancelled>());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialCancelled;

impl std::fmt::Display for TrialCancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trial cancelled by watchdog")
    }
}

#[derive(Debug, Default)]
struct ProgressShared {
    /// Events dispatched by the probed run, published every `stride`.
    beats: AtomicU64,
    /// Virtual time of the last dispatched event at the last heartbeat,
    /// in nanoseconds. Published together with `beats`, so a live view
    /// can report simulated-seconds progress rather than raw event
    /// counts.
    sim_time_ns: AtomicU64,
    /// Raised [`CancelSignal`] (as its `u8` repr).
    signal: AtomicU8,
}

/// The watchdog's side of a heartbeat channel: cheap to clone, safe to
/// poll from any thread.
///
/// Create one per trial attempt, derive the trial's observer with
/// [`probe`](Self::probe), and poll [`beats`](Self::beats) from the
/// supervisor. A fresh handle starts at zero beats with
/// [`CancelSignal::Run`].
#[derive(Debug, Clone, Default)]
pub struct ProgressHandle {
    shared: Arc<ProgressShared>,
}

impl ProgressHandle {
    /// A fresh handle: zero beats, no cancellation.
    pub fn new() -> Self {
        ProgressHandle::default()
    }

    /// Build the observer half, publishing every `stride` dispatched
    /// events (`stride` is clamped to ≥ 1).
    pub fn probe(&self, stride: u64) -> ProgressProbe {
        ProgressProbe {
            shared: Arc::clone(&self.shared),
            stride: stride.max(1),
            until_beat: stride.max(1),
            local: 0,
            now_ns: 0,
        }
    }

    /// The last published heartbeat: events dispatched by the probed run,
    /// rounded down to the probe's stride.
    pub fn beats(&self) -> u64 {
        self.shared.beats.load(Ordering::Relaxed)
    }

    /// Virtual time reached by the probed run as of the last heartbeat.
    /// Zero until the first heartbeat lands.
    pub fn sim_time(&self) -> SimTime {
        SimTime::from_nanos(self.shared.sim_time_ns.load(Ordering::Relaxed))
    }

    /// Raise a cancellation signal. [`CancelSignal::Run`] clears a
    /// previously raised signal (e.g. between retry attempts when the
    /// handle is reused).
    pub fn cancel(&self, signal: CancelSignal) {
        self.shared.signal.store(signal as u8, Ordering::Relaxed);
    }

    /// The currently raised signal.
    pub fn signal(&self) -> CancelSignal {
        CancelSignal::from_u8(self.shared.signal.load(Ordering::Relaxed))
    }
}

/// The trial's side of a heartbeat channel: a [`SimObserver`] that
/// publishes progress and honours stall cancellation.
///
/// Compose it with other observers via a `Tee`-style combinator; it
/// absorbs nothing and emits nothing, so digests are unaffected.
#[derive(Debug, Clone)]
pub struct ProgressProbe {
    shared: Arc<ProgressShared>,
    stride: u64,
    /// Dispatches until the next automatic beat: counting down fires at
    /// exactly the multiples of `stride`, without a division per event.
    until_beat: u64,
    local: u64,
    now_ns: u64,
}

impl ProgressProbe {
    /// Events this probe has seen dispatched (exact, not stride-rounded).
    pub fn events_seen(&self) -> u64 {
        self.local
    }

    /// Virtual time of the last event this probe saw dispatched (exact,
    /// not heartbeat-deferred like the handle's view).
    pub fn sim_time_seen(&self) -> SimTime {
        SimTime::from_nanos(self.now_ns)
    }

    /// Publish the current count and sim-time, and unwind if a stall
    /// cancel is raised. Called automatically every `stride` events;
    /// callers driving long non-event work (e.g. a chaos stall loop) may
    /// call it directly to create extra cancellation points.
    ///
    /// # Panics
    ///
    /// Panics with [`TrialCancelled`] when [`CancelSignal::Stall`] has
    /// been raised on the handle.
    pub fn beat(&mut self) {
        self.shared.beats.store(self.local, Ordering::Relaxed);
        self.shared
            .sim_time_ns
            .store(self.now_ns, Ordering::Relaxed);
        if self.shared.signal.load(Ordering::Relaxed) == CancelSignal::Stall as u8 {
            std::panic::panic_any(TrialCancelled);
        }
    }
}

impl SimObserver for ProgressProbe {
    fn on_event_dispatched(&mut self, now: SimTime, _seq: u64, _node: usize, _kind: EventKind) {
        self.local += 1;
        self.now_ns = now.as_nanos();
        self.until_beat -= 1;
        if self.until_beat == 0 {
            self.until_beat = self.stride;
            self.beat();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dispatch(probe: &mut ProgressProbe, n: u64) {
        for i in 0..n {
            probe.on_event_dispatched(SimTime::from_nanos(i), i, 0, EventKind::MacTimer);
        }
    }

    #[test]
    fn heartbeat_publishes_every_stride() {
        let handle = ProgressHandle::new();
        let mut probe = handle.probe(8);
        dispatch(&mut probe, 7);
        assert_eq!(handle.beats(), 0, "below stride: nothing published");
        dispatch(&mut probe, 1);
        assert_eq!(handle.beats(), 8);
        dispatch(&mut probe, 20);
        assert_eq!(handle.beats(), 24, "stride-rounded");
        assert_eq!(probe.events_seen(), 28);
    }

    #[test]
    fn heartbeat_carries_sim_time() {
        let handle = ProgressHandle::new();
        let mut probe = handle.probe(4);
        for t in [10u64, 20, 30] {
            probe.on_event_dispatched(SimTime::from_nanos(t), t, 0, EventKind::MacTimer);
        }
        assert_eq!(
            handle.sim_time(),
            SimTime::from_nanos(0),
            "below stride: nothing published"
        );
        assert_eq!(
            probe.sim_time_seen(),
            SimTime::from_nanos(30),
            "probe view is exact"
        );
        probe.on_event_dispatched(SimTime::from_nanos(40), 3, 0, EventKind::MacTimer);
        assert_eq!(
            handle.sim_time(),
            SimTime::from_nanos(40),
            "published with the beat"
        );
        assert_eq!(handle.beats(), 4);
    }

    #[test]
    fn stall_cancel_unwinds_with_typed_payload() {
        let handle = ProgressHandle::new();
        let mut probe = handle.probe(4);
        handle.cancel(CancelSignal::Stall);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dispatch(&mut probe, 4);
        }));
        let payload = caught.expect_err("stall cancel must unwind");
        assert!(payload.is::<TrialCancelled>());
    }

    #[test]
    fn shutdown_signal_does_not_unwind() {
        let handle = ProgressHandle::new();
        let mut probe = handle.probe(2);
        handle.cancel(CancelSignal::Shutdown);
        dispatch(&mut probe, 10);
        assert_eq!(handle.beats(), 10);
        assert_eq!(handle.signal(), CancelSignal::Shutdown);
    }

    #[test]
    fn run_signal_clears_a_raised_cancel() {
        let handle = ProgressHandle::new();
        handle.cancel(CancelSignal::Stall);
        handle.cancel(CancelSignal::Run);
        assert_eq!(handle.signal(), CancelSignal::Run);
        let mut probe = handle.probe(1);
        dispatch(&mut probe, 3);
        assert_eq!(handle.beats(), 3);
    }

    #[test]
    fn direct_beats_do_not_shift_the_stride_schedule() {
        let handle = ProgressHandle::new();
        let mut probe = handle.probe(5);
        dispatch(&mut probe, 3);
        probe.beat();
        assert_eq!(handle.beats(), 3, "a direct beat publishes the exact count");
        dispatch(&mut probe, 2);
        assert_eq!(handle.beats(), 5, "the automatic beat still lands on 5");
        dispatch(&mut probe, 4);
        assert_eq!(handle.beats(), 5);
        dispatch(&mut probe, 1);
        assert_eq!(handle.beats(), 10);
    }

    #[test]
    fn zero_stride_is_clamped() {
        let handle = ProgressHandle::new();
        let mut probe = handle.probe(0);
        dispatch(&mut probe, 2);
        assert_eq!(handle.beats(), 2);
    }
}
