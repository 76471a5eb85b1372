//! Resilience experiment: the Fig. 11 scenario under fault injection.
//!
//! Reruns the paper's protocol-comparison setup — CBR senders towards
//! receiver 0 on the 3000 m ring — three times per protocol: an unfaulted
//! baseline, a node-churn plan that crashes and later recovers relay
//! vehicles mid-run, and a burst-loss plan modelling a deep-fading window.
//! The outcome quantifies how gracefully each routing protocol degrades
//! (PDR and goodput relative to baseline) and how quickly it re-establishes
//! delivery after the first crash (time-to-reroute).
//!
//! All three runs share the scenario's seed, so differences between the
//! baseline and the faulted runs are attributable to the fault plan alone.

use std::collections::HashSet;
use std::time::Duration;

use cavenet_net::{DropCounts, FaultPlan, SimTime};

use crate::{Experiment, ExperimentResult, Protocol, Scenario, ScenarioError};

/// One scenario run reduced to the resilience metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceSummary {
    /// Mean per-flow packet delivery ratio.
    pub mean_pdr: f64,
    /// Aggregate application goodput in bits/s — unique payload delivered
    /// across all flows, averaged over the CBR traffic window. (Unlike the
    /// Figs. 8–10 goodput series this excludes duplicate receptions, so
    /// MAC-retry pathologies under loss cannot inflate it.)
    pub goodput_bps: f64,
    /// Unique data packets delivered across all flows.
    pub delivered: u64,
    /// Data packets originated across all flows.
    pub sent: u64,
    /// Routing control packets sent network-wide.
    pub control_packets: u64,
    /// Data-packet drops by terminal reason, straight from the engine's
    /// per-reason counters ([`Simulator::drop_counts`]) — no observer or
    /// event replay needed.
    ///
    /// [`Simulator::drop_counts`]: cavenet_net::Simulator::drop_counts
    pub drops: DropCounts,
}

impl ResilienceSummary {
    /// Reduce an experiment result; `window` is the CBR traffic window.
    pub fn from_result(r: &ExperimentResult, window: Duration) -> Self {
        let bits: f64 = r
            .senders
            .iter()
            .map(|s| s.metrics.bytes_received as f64 * 8.0)
            .sum();
        ResilienceSummary {
            mean_pdr: r.mean_pdr(),
            goodput_bps: bits / window.as_secs_f64().max(1e-9),
            delivered: r.total_received(),
            sent: r.total_sent(),
            control_packets: r.control_packets,
            drops: r.drops,
        }
    }

    /// Total data packets dropped, across all reasons.
    pub fn dropped(&self) -> u64 {
        self.drops.total()
    }
}

/// Per-protocol outcome of the resilience experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceOutcome {
    /// The protocol under test.
    pub protocol: Protocol,
    /// Unfaulted reference run.
    pub baseline: ResilienceSummary,
    /// Run under the node-churn plan ([`churn_plan`]).
    pub churn: ResilienceSummary,
    /// Run under the burst-loss plan ([`burst_plan`]).
    pub burst: ResilienceSummary,
    /// Time from the first crash until aggregate goodput recovers to half
    /// its pre-crash mean (1 s resolution); `None` when it never recovers
    /// within the run or no pre-crash traffic existed to compare against.
    pub time_to_reroute: Option<Duration>,
}

impl ResilienceOutcome {
    /// Fractional PDR loss under churn relative to baseline (0 = none,
    /// 1 = all delivery lost).
    pub fn churn_degradation(&self) -> f64 {
        degradation(self.baseline.mean_pdr, self.churn.mean_pdr)
    }

    /// Fractional PDR loss under burst loss relative to baseline.
    pub fn burst_degradation(&self) -> f64 {
        degradation(self.baseline.mean_pdr, self.burst.mean_pdr)
    }
}

fn degradation(baseline: f64, faulted: f64) -> f64 {
    if baseline <= 0.0 {
        0.0
    } else {
        (1.0 - faulted / baseline).max(0.0)
    }
}

/// Relay vehicles eligible for churn: nodes that are neither senders nor
/// the receiver, spread evenly over the id space. Returns up to `want`.
fn relay_nodes(s: &Scenario, want: usize) -> Vec<usize> {
    let mut endpoints: HashSet<u32> = s.traffic.senders.iter().copied().collect();
    endpoints.insert(s.traffic.receiver);
    let candidates: Vec<usize> = (0..s.nodes)
        .filter(|&i| !endpoints.contains(&(i as u32)))
        .collect();
    if candidates.is_empty() {
        return Vec::new();
    }
    let want = want.min(candidates.len());
    let mut picked: Vec<usize> = (0..want)
        .map(|k| candidates[k * (candidates.len() - 1) / want.max(2).saturating_sub(1)])
        .collect();
    picked.dedup();
    picked
}

/// The standard node-churn plan for `s`: three relay vehicles crash at
/// staggered times (30 %, 40 %, 50 % of the run) and recover 25 % of the
/// run later. Traffic endpoints are never crashed, so every flow keeps its
/// source and sink and any delivery dip is a routing failure, not an
/// application one.
pub fn churn_plan(s: &Scenario) -> FaultPlan {
    let t = s.sim_time.as_secs_f64();
    let mut plan = FaultPlan::new();
    for (k, node) in relay_nodes(s, 3).into_iter().enumerate() {
        let crash = (0.30 + 0.10 * k as f64) * t;
        let recover = crash + 0.25 * t;
        plan = plan
            .crash(SimTime::from_secs_f64(crash), node)
            .recover(SimTime::from_secs_f64(recover), node);
    }
    plan
}

/// The standard burst-loss plan for `s`: a network-wide deep-fading window
/// covering 40 %–60 % of the run in which every frame is lost with
/// probability 0.5 on top of normal propagation.
pub fn burst_plan(s: &Scenario) -> FaultPlan {
    let t = s.sim_time.as_secs_f64();
    FaultPlan::new().burst(
        SimTime::from_secs_f64(0.40 * t),
        SimTime::from_secs_f64(0.60 * t),
        0.5,
    )
}

/// Time from the first crash in `plan` until the aggregate goodput of `r`
/// recovers to at least half its pre-crash mean, at the 1 s resolution of
/// the goodput series.
pub fn time_to_reroute(
    r: &ExperimentResult,
    plan: &FaultPlan,
    traffic_start: Duration,
) -> Option<Duration> {
    let first_crash = plan
        .down_windows()
        .into_iter()
        .map(|(_, start, _)| start)
        .min()?;
    let bins = r
        .senders
        .iter()
        .map(|s| s.goodput_series.len())
        .max()
        .unwrap_or(0);
    let aggregate: Vec<f64> = (0..bins)
        .map(|i| {
            r.senders
                .iter()
                .filter_map(|s| s.goodput_series.get(i))
                .sum()
        })
        .collect();
    let start_bin = traffic_start.as_secs_f64().floor() as usize;
    let crash_bin = (first_crash.as_secs_f64().floor() as usize).min(bins);
    if crash_bin <= start_bin {
        return None;
    }
    let pre: &[f64] = &aggregate[start_bin..crash_bin];
    let pre_mean = pre.iter().sum::<f64>() / pre.len() as f64;
    if pre_mean <= 0.0 {
        return None;
    }
    let threshold = 0.5 * pre_mean;
    aggregate[crash_bin..]
        .iter()
        .position(|&g| g >= threshold)
        .map(|k| Duration::from_secs(k as u64))
}

/// Runs one protocol's baseline / churn / burst triple.
#[derive(Debug, Clone)]
pub struct Resilience {
    base: Scenario,
}

impl Resilience {
    /// Wrap a base scenario. Its own `fault_plan` is treated as the
    /// baseline (normally empty); the churn and burst runs replace it.
    pub fn new(base: Scenario) -> Self {
        Resilience { base }
    }

    /// The base scenario.
    pub fn scenario(&self) -> &Scenario {
        &self.base
    }

    /// The base scenario with the standard churn plan applied.
    pub fn churn_scenario(&self) -> Scenario {
        let mut s = self.base.clone();
        s.fault_plan = churn_plan(&self.base);
        s
    }

    /// The base scenario with the standard burst-loss plan applied.
    pub fn burst_scenario(&self) -> Scenario {
        let mut s = self.base.clone();
        s.fault_plan = burst_plan(&self.base);
        s
    }

    /// Run the three scenarios and reduce them to a [`ResilienceOutcome`].
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] when the base scenario is inconsistent or
    /// a fault plan fails validation.
    pub fn run(&self) -> Result<ResilienceOutcome, ScenarioError> {
        let window = self
            .base
            .traffic
            .cbr
            .stop
            .saturating_sub(self.base.traffic.cbr.start);
        let churn_scenario = self.churn_scenario();
        let baseline = Experiment::new(self.base.clone()).run()?;
        let churn = Experiment::new(churn_scenario.clone()).run()?;
        let burst = Experiment::new(self.burst_scenario()).run()?;
        let time_to_reroute = time_to_reroute(
            &churn,
            &churn_scenario.fault_plan,
            self.base.traffic.cbr.start,
        );
        Ok(ResilienceOutcome {
            protocol: self.base.protocol,
            baseline: ResilienceSummary::from_result(&baseline, window),
            churn: ResilienceSummary::from_result(&churn, window),
            burst: ResilienceSummary::from_result(&burst, window),
            time_to_reroute,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(protocol: Protocol) -> Resilience {
        let mut s = Scenario::paper_table1(protocol);
        s.sim_time = Duration::from_secs(30);
        s.traffic.cbr.start = Duration::from_secs(5);
        s.traffic.cbr.stop = Duration::from_secs(25);
        s.traffic.senders = vec![1, 2, 3];
        Resilience::new(s)
    }

    #[test]
    fn plans_validate_against_their_scenario() {
        let r = quick(Protocol::Aodv);
        assert!(r.churn_scenario().validate().is_ok());
        assert!(r.burst_scenario().validate().is_ok());
        assert!(!r.churn_scenario().fault_plan.is_empty());
        assert!(!r.burst_scenario().fault_plan.is_empty());
    }

    #[test]
    fn churn_never_touches_traffic_endpoints() {
        let r = quick(Protocol::Aodv);
        let plan = churn_plan(r.scenario());
        for (node, _, _) in plan.down_windows() {
            assert!(
                node > 3,
                "churn crashed traffic endpoint {node} (senders 1-3, receiver 0)"
            );
        }
        assert_eq!(plan.down_windows().len(), 3);
    }

    #[test]
    fn aodv_triple_runs_and_degrades_gracefully() {
        let out = quick(Protocol::Aodv).run().unwrap();
        assert!(out.baseline.mean_pdr > 0.3, "baseline must deliver");
        assert!(out.churn.delivered > 0, "churn must not kill all delivery");
        assert!(out.burst.delivered > 0, "burst must not kill all delivery");
        // Burst loss of 0.5 over a fifth of the run must cost something.
        assert!(
            out.burst.mean_pdr <= out.baseline.mean_pdr,
            "burst {:.3} vs baseline {:.3}",
            out.burst.mean_pdr,
            out.baseline.mean_pdr
        );
        assert!((0.0..=1.0).contains(&out.churn_degradation()));
        assert!((0.0..=1.0).contains(&out.burst_degradation()));
    }

    #[test]
    fn resilience_runs_are_deterministic() {
        let a = quick(Protocol::Aodv).run().unwrap();
        let b = quick(Protocol::Aodv).run().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn time_to_reroute_handles_empty_plan() {
        let r = quick(Protocol::Aodv);
        let result = Experiment::new(r.scenario().clone()).run().unwrap();
        assert_eq!(
            time_to_reroute(&result, &FaultPlan::new(), Duration::from_secs(5)),
            None
        );
    }
}
