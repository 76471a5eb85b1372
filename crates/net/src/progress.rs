//! Liveness of a running simulation, for external watchdogs.
//!
//! A long campaign needs to distinguish "this trial is slow" from "this
//! trial is wedged". The engine itself cannot tell — a protocol stuck in a
//! timer loop still looks like a running simulation from the outside. A
//! [`ProgressHandle`] closes that gap: the trial publishes a heartbeat
//! (work done so far and the virtual time reached) into it with
//! [`ProgressHandle::beat`], and a supervisor thread polls it; a heartbeat
//! that stops advancing past a deadline is a stalled trial. An exact
//! trial beats from inside its event stream, every `stride` dispatched
//! events, through the trial's `StreamProbe` observer
//! (`cavenet-telemetry`); the campaign's drive loop beats once more at
//! every slice end, whatever the engine.
//!
//! The handle is also the cancellation path. The supervisor raises a
//! [`CancelSignal`] on the handle; every beat checks it and, for
//! [`CancelSignal::Stall`], unwinds the trial by panicking with the typed
//! [`TrialCancelled`] payload. The driving thread catches the unwind
//! (`std::panic::catch_unwind`), downcasts the payload, and knows the
//! abort was a supervised cancellation rather than an engine bug.
//! [`CancelSignal::Shutdown`] is deliberately *not* acted on by a beat:
//! graceful shutdown is handled between run slices by the campaign driver
//! (which wants to checkpoint first), not by unwinding mid-event.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use crate::time::SimTime;

/// Cancellation state of a supervised trial, raised by a watchdog through
/// [`ProgressHandle::cancel`] and observed by the trial's next
/// [`beat`](ProgressHandle::beat) (for [`Stall`](CancelSignal::Stall)) or
/// its driving loop (for [`Shutdown`](CancelSignal::Shutdown)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum CancelSignal {
    /// No cancellation requested; the trial keeps running.
    Run = 0,
    /// The watchdog declared the trial stalled: the next beat unwinds
    /// with [`TrialCancelled`].
    Stall = 1,
    /// The server is shutting down: the driving loop should checkpoint at
    /// the next slice boundary and stop. Beats carry on.
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
    /// Work done by the trial as of the last heartbeat.
    beats: AtomicU64,
    /// Virtual time reached at the last heartbeat, in nanoseconds.
    /// Published together with `beats`, so a live view can report
    /// simulated-seconds progress rather than raw event counts.
    sim_time_ns: AtomicU64,
    /// Raised [`CancelSignal`] (as its `u8` repr).
    signal: AtomicU8,
}

/// A trial's heartbeat channel: cheap to clone, safe to share between
/// the trial and its watchdog.
///
/// Create one per trial attempt, hand a clone to the trial, which calls
/// [`beat`](Self::beat), and poll [`beats`](Self::beats) from the
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

    /// Publish `events` as the work done so far and `now` as the virtual
    /// time reached, then unwind if a stall has been raised. The trial's
    /// in-stream probe beats every `stride` dispatched events; a loop
    /// that advances a run in slices beats at each slice end with the
    /// exact count, whatever the engine (the fluid model dispatches no
    /// events to observe).
    ///
    /// # Panics
    ///
    /// Panics with [`TrialCancelled`] when [`CancelSignal::Stall`] has
    /// been raised.
    pub fn beat(&self, now: SimTime, events: u64) {
        self.shared.beats.store(events, Ordering::Relaxed);
        self.shared
            .sim_time_ns
            .store(now.as_nanos(), Ordering::Relaxed);
        if self.signal() == CancelSignal::Stall {
            std::panic::panic_any(TrialCancelled);
        }
    }

    /// The last published heartbeat: events dispatched by the trial,
    /// rounded down to the probe's stride between slice ends and exact
    /// at them.
    pub fn beats(&self) -> u64 {
        self.shared.beats.load(Ordering::Relaxed)
    }

    /// Virtual time reached by the trial as of the last heartbeat.
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `beat`; true when it unwound, which must be with the typed
    /// payload.
    fn unwinds(beat: impl FnOnce()) -> bool {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(beat)) {
            Ok(()) => false,
            Err(payload) => {
                assert!(payload.is::<TrialCancelled>(), "untyped unwind");
                true
            }
        }
    }

    #[test]
    fn heartbeat_carries_sim_time() {
        let handle = ProgressHandle::new();
        assert_eq!(handle.sim_time(), SimTime::ZERO, "nothing published yet");
        handle.beat(SimTime::from_nanos(40), 4);
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
        handle.cancel(CancelSignal::Stall);
        assert!(unwinds(|| handle.beat(SimTime::from_nanos(3), 4)));
    }

    #[test]
    fn shutdown_signal_does_not_unwind() {
        let handle = ProgressHandle::new();
        handle.cancel(CancelSignal::Shutdown);
        assert!(!unwinds(|| handle.beat(SimTime::from_nanos(9), 10)));
        assert_eq!(handle.beats(), 10);
        assert_eq!(handle.signal(), CancelSignal::Shutdown);
    }

    #[test]
    fn run_signal_clears_a_raised_cancel() {
        let handle = ProgressHandle::new();
        handle.cancel(CancelSignal::Stall);
        handle.cancel(CancelSignal::Run);
        assert_eq!(handle.signal(), CancelSignal::Run);
        assert!(!unwinds(|| handle.beat(SimTime::from_nanos(2), 3)));
        assert_eq!(handle.beats(), 3);
    }

    #[test]
    fn beat_publishes_an_explicit_count_and_honours_stall() {
        let handle = ProgressHandle::new();
        handle.beat(SimTime::from_secs(4), 17);
        assert_eq!(handle.beats(), 17, "not stride-rounded");
        assert_eq!(handle.sim_time(), SimTime::from_secs(4));
        handle.cancel(CancelSignal::Stall);
        assert!(unwinds(|| handle.beat(SimTime::from_secs(8), 30)));
        assert_eq!(handle.beats(), 30, "published before unwinding");
        assert_eq!(handle.sim_time(), SimTime::from_secs(8));
    }
}
