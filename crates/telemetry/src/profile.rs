//! Wall-clock attribution of engine time to simulation phases.
//!
//! The engine dispatches one event at a time, so the wall-clock interval
//! between two consecutive `on_event_dispatched` hooks is the cost of
//! processing the *earlier* event — its MAC/PHY handling, routing upcalls
//! and deferred-work drain. [`PhaseProfiler::tick`] exploits that: it
//! attributes each inter-dispatch delta to the phase of the previous
//! event's kind. Mobility-trace generation happens before the engine runs
//! and is timed externally via [`PhaseProfiler::add_external`].

use std::time::{Duration, Instant};

use cavenet_net::EventKind;

use crate::json::Json;

/// A simulation phase that wall-clock time is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Mobility trace generation (the BA side: CA stepping + sampling).
    Mobility,
    /// PHY events: receptions starting/ending, transmissions ending.
    Phy,
    /// MAC timers (DIFS, backoff, ACK timeout, NAV).
    Mac,
    /// Routing-protocol timers.
    Routing,
    /// Application timers.
    App,
    /// Fault injection events.
    Fault,
    /// Event kinds this crate does not know (future engine additions).
    Other,
}

impl Phase {
    /// Number of phases.
    pub const COUNT: usize = 7;

    /// All phases, in declaration (= report) order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Mobility,
        Phase::Phy,
        Phase::Mac,
        Phase::Routing,
        Phase::App,
        Phase::Fault,
        Phase::Other,
    ];

    /// Stable snake_case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Mobility => "mobility",
            Phase::Phy => "phy",
            Phase::Mac => "mac",
            Phase::Routing => "routing",
            Phase::App => "app",
            Phase::Fault => "fault",
            Phase::Other => "other",
        }
    }

    /// The phase an engine event belongs to.
    pub fn of(kind: EventKind) -> Phase {
        match kind {
            EventKind::RxStart | EventKind::RxEnd | EventKind::TxEnd => Phase::Phy,
            EventKind::MacTimer => Phase::Mac,
            EventKind::RoutingTimer => Phase::Routing,
            EventKind::AppTimer => Phase::App,
            EventKind::Fault => Phase::Fault,
            _ => Phase::Other,
        }
    }
}

/// Accumulates per-phase wall-clock totals and event counts.
#[derive(Debug, Clone, Default)]
pub struct PhaseProfiler {
    totals: [Duration; Phase::COUNT],
    counts: [u64; Phase::COUNT],
    open: Option<(Instant, Phase)>,
}

impl PhaseProfiler {
    /// A fresh profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Called at each event dispatch: closes the interval opened by the
    /// previous dispatch (charging it to that event's phase) and opens a
    /// new one for `kind`.
    pub fn tick(&mut self, kind: EventKind) {
        let now = Instant::now();
        if let Some((opened, phase)) = self.open {
            self.totals[phase as usize] += now - opened;
            self.counts[phase as usize] += 1;
        }
        self.open = Some((now, Phase::of(kind)));
    }

    /// Close the final open interval. Call once after the run; further
    /// `tick`s start fresh.
    pub fn finish(&mut self) {
        if let Some((opened, phase)) = self.open.take() {
            self.totals[phase as usize] += opened.elapsed();
            self.counts[phase as usize] += 1;
        }
    }

    /// Attribute externally measured time (e.g. mobility-trace
    /// generation) to a phase.
    pub fn add_external(&mut self, phase: Phase, elapsed: Duration) {
        self.totals[phase as usize] += elapsed;
    }

    /// Total wall-clock charged to a phase.
    pub fn total(&self, phase: Phase) -> Duration {
        self.totals[phase as usize]
    }

    /// Events charged to a phase.
    pub fn count(&self, phase: Phase) -> u64 {
        self.counts[phase as usize]
    }

    /// Wall-clock across all phases.
    pub fn grand_total(&self) -> Duration {
        self.totals.iter().sum()
    }

    /// Per-phase breakdown as JSON: seconds, event count and share of the
    /// profiled total, in declaration order.
    pub fn to_json(&self) -> Json {
        let grand = self.grand_total().as_secs_f64();
        Json::Obj(
            Phase::ALL
                .iter()
                .map(|&p| {
                    let secs = self.total(p).as_secs_f64();
                    (
                        p.name().to_string(),
                        Json::Obj(vec![
                            ("seconds".into(), Json::Num(secs)),
                            ("events".into(), Json::num_u64(self.count(p))),
                            (
                                "share".into(),
                                Json::Num(if grand > 0.0 { secs / grand } else { 0.0 }),
                            ),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_event_kind_maps_to_a_phase() {
        for kind in [
            EventKind::RxStart,
            EventKind::RxEnd,
            EventKind::TxEnd,
            EventKind::MacTimer,
            EventKind::RoutingTimer,
            EventKind::AppTimer,
            EventKind::Fault,
        ] {
            assert_ne!(Phase::of(kind), Phase::Other);
        }
    }

    #[test]
    fn tick_charges_the_previous_event() {
        let mut p = PhaseProfiler::new();
        p.tick(EventKind::MacTimer);
        p.tick(EventKind::AppTimer); // closes the MacTimer interval
        assert_eq!(p.count(Phase::Mac), 1);
        assert_eq!(p.count(Phase::App), 0);
        p.finish();
        assert_eq!(p.count(Phase::App), 1);
        assert!(p.grand_total() >= p.total(Phase::Mac));
    }

    #[test]
    fn external_time_is_attributed() {
        let mut p = PhaseProfiler::new();
        p.add_external(Phase::Mobility, Duration::from_millis(5));
        assert_eq!(p.total(Phase::Mobility), Duration::from_millis(5));
        assert_eq!(p.count(Phase::Mobility), 0);
    }
}
