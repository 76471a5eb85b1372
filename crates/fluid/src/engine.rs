//! The time-stepped fluid engine.

use std::collections::BTreeMap;
use std::time::Duration;

use cavenet_mobility::{MobilityTrace, Point2};
use cavenet_net::{ChannelBackend, MacBackend, NetError, WireError, WireReader, WireWriter};
use cavenet_rng::fnv::{fnv64, Fnv64};

use crate::field::Field;
use crate::{FluidConfig, FluidError, RouteDiscipline};

/// Wire-format version of [`FluidEngine::capture`].
const CAPTURE_VERSION: u8 = 1;

/// Collision probability is capped below 1 so retry arithmetic stays
/// finite: a fully saturated neighborhood still drains (slowly).
const P_CAP_UNICAST: f64 = 0.95;
const P_CAP_FLOOD: f64 = 0.9;

/// Per-flow running accumulators. Emissions are exact integers on the
/// same nanosecond grid the exact engine schedules on; deliveries are
/// fractional expectations rounded once at report time.
#[derive(Debug, Clone, PartialEq)]
struct FlowAcc {
    interval_ns: u64,
    start_ns: u64,
    stop_ns: u64,
    /// Index of the next emission (emission `k` fires at
    /// `start + k·interval`).
    next_emit: u64,
    sent: u64,
    rx_acc: f64,
    delay_acc_s: f64,
    max_delay_s: f64,
    first_sent_ns: Option<u64>,
    last_rx_ns: Option<u64>,
    /// Delivered bytes per 1-s bin (fractional until report time).
    bins: Vec<f64>,
}

/// Per-flow results of a finished (or in-flight) fluid run, shaped to
/// convert directly into the experiment layer's sender reports.
#[derive(Debug, Clone, PartialEq)]
pub struct FluidFlowReport {
    /// Source node id.
    pub src: u32,
    /// Destination node id.
    pub dst: u32,
    /// Flow port.
    pub port: u16,
    /// Packets emitted.
    pub sent: u64,
    /// Expected packets delivered (rounded, clamped to `sent`).
    pub received: u64,
    /// Payload bytes emitted.
    pub bytes_sent: u64,
    /// Payload bytes delivered.
    pub bytes_received: u64,
    /// Mean end-to-end delay over delivered packets.
    pub mean_delay: Option<Duration>,
    /// Worst per-packet expected delay seen while anything was deliverable.
    pub max_delay: Option<Duration>,
    /// First emission time.
    pub first_sent: Option<Duration>,
    /// Last arrival time with non-negligible delivered mass.
    pub last_received: Option<Duration>,
    /// Goodput per 1-s bin in bits/s — same shape and unit as the exact
    /// recorder's `goodput_series`.
    pub goodput_bps: Vec<f64>,
}

impl FluidFlowReport {
    /// Packet delivery ratio.
    pub fn pdr(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.received as f64 / self.sent as f64
        }
    }
}

/// The full result of a fluid run.
#[derive(Debug, Clone, PartialEq)]
pub struct FluidReport {
    /// Per-flow results, in configuration order.
    pub flows: Vec<FluidFlowReport>,
    /// Model steps executed.
    pub steps: u64,
    /// Running determinism digest (see [`FluidEngine::digest`]).
    pub digest: u64,
    /// Estimated frame transmissions (control + data forwarding).
    pub est_transmissions: u64,
    /// Estimated successful frame receptions.
    pub est_decoded: u64,
}

/// The flow-level engine: see the crate docs for the model.
///
/// Holds its [`MobilityTrace`] (a shared handle, not a copy) — the trace
/// is the only channel through which the scenario seed influences fluid
/// results.
#[derive(Debug, Clone)]
pub struct FluidEngine {
    cfg: FluidConfig,
    trace: MobilityTrace,
    /// Node positions at the current step's midpoint, reused across steps.
    positions: Vec<Point2>,
    cell: f64,
    cs_range: f64,
    rx_range: f64,
    step_ns: u64,
    end_ns: u64,
    total_steps: u64,
    step: u64,
    flows: Vec<FlowAcc>,
    est_tx: f64,
    est_decoded: f64,
    digest: Fnv64,
}

impl FluidEngine {
    /// Build an engine over `cfg` and the shared mobility trace.
    ///
    /// # Errors
    ///
    /// [`FluidError`] for an empty scenario, a zero step, an out-of-range
    /// flow endpoint, a backend the exact engine would refuse or with no
    /// finite reception range, or a trace that cannot place every node.
    pub fn new(cfg: FluidConfig, trace: MobilityTrace) -> Result<Self, FluidError> {
        if cfg.nodes == 0 || cfg.sim_time.is_zero() {
            return Err(FluidError::EmptyScenario);
        }
        if cfg.step.is_zero() {
            return Err(FluidError::BadStep);
        }
        for f in &cfg.flows {
            if f.src >= cfg.nodes || f.dst >= cfg.nodes || f.src == f.dst {
                return Err(FluidError::BadFlow {
                    src: f.src,
                    dst: f.dst,
                });
            }
        }
        if let Err(NetError::BadConfig { field }) = cfg.backend.validate() {
            return Err(FluidError::BadConfig { field });
        }
        let rx_range = cfg.backend.rx_range();
        if !rx_range.is_finite() {
            return Err(FluidError::BadConfig {
                field: "phy.rx_threshold_w",
            });
        }
        // Fail fast if the trace cannot place every node.
        let mut positions = Vec::new();
        trace.positions_into(cfg.nodes as usize, 0.0, &mut positions)?;
        // A carrier-sense model without a known bound (shadowing, or a
        // threshold still met 100 km out) degrades to twice the reception
        // range for contention purposes.
        let cs_range = cfg.backend.carrier_sense_cutoff().unwrap_or(2.0 * rx_range);
        let end_ns = cfg.sim_time.as_nanos() as u64;
        let step_ns = cfg.step.as_nanos() as u64;
        let total_steps = end_ns.div_ceil(step_ns);
        let n_bins = cfg.sim_time.as_secs_f64().ceil() as usize;
        let flows = cfg
            .flows
            .iter()
            .map(|f| FlowAcc {
                interval_ns: f.cbr.interval().as_nanos() as u64,
                start_ns: f.cbr.start.as_nanos() as u64,
                stop_ns: f.cbr.stop.as_nanos() as u64,
                next_emit: 0,
                sent: 0,
                rx_acc: 0.0,
                delay_acc_s: 0.0,
                max_delay_s: 0.0,
                first_sent_ns: None,
                last_rx_ns: None,
                bins: vec![0.0; n_bins],
            })
            .collect();
        Ok(FluidEngine {
            cell: rx_range / 2.0,
            cs_range,
            rx_range,
            step_ns,
            end_ns,
            total_steps,
            step: 0,
            flows,
            est_tx: 0.0,
            est_decoded: 0.0,
            digest: Fnv64::new(),
            cfg,
            trace,
            positions,
        })
    }

    /// Current model time in nanoseconds (step granularity).
    pub fn now_ns(&self) -> u64 {
        (self.step * self.step_ns).min(self.end_ns)
    }

    /// Completed steps.
    pub fn steps_done(&self) -> u64 {
        self.step
    }

    /// Whether the run has reached the end of simulated time.
    pub fn finished(&self) -> bool {
        self.step >= self.total_steps
    }

    /// Running FNV-1a digest over every step's per-flow outcomes — the
    /// fluid analogue of the exact engine's event-stream digest. Equal
    /// digests mean bit-identical runs.
    pub fn digest(&self) -> u64 {
        self.digest.finish()
    }

    /// The configuration this engine runs.
    pub fn config(&self) -> &FluidConfig {
        &self.cfg
    }

    /// Advance until model time reaches `target_ns` (or the end). Time
    /// moves in whole steps, so the engine may stop past `target_ns`.
    pub fn run_until_ns(&mut self, target_ns: u64) {
        let target = target_ns.min(self.end_ns);
        while !self.finished() && self.now_ns() < target {
            self.step_once();
        }
    }

    /// Run to the end of simulated time.
    pub fn run_to_end(&mut self) {
        while !self.finished() {
            self.step_once();
        }
    }

    /// Execute one model step.
    pub fn step_once(&mut self) {
        if self.finished() {
            return;
        }
        let w0 = self.step * self.step_ns;
        let w1 = ((self.step + 1) * self.step_ns).min(self.end_ns);
        let dt = (w1 - w0) as f64 * 1e-9;
        let mid = (w0 + (w1 - w0) / 2) as f64 * 1e-9;

        // 1. Sample the shared trace at the step midpoint and bin.
        self.trace
            .positions_into(self.cfg.nodes as usize, mid, &mut self.positions)
            .expect("trace validated in new()");
        let mut field = Field::bin(&self.positions, self.cell, self.cs_range);

        // 2. Background routing-control load, everywhere.
        let b = &self.cfg.backend;
        let ctl_air = b
            .control_airtime(self.cfg.control_payload_bytes + b.data_overhead_bytes())
            .as_secs_f64();
        if self.cfg.control_pps_per_node > 0.0 {
            for c in 0..field.len() {
                field.load[c] +=
                    f64::from(field.count[c]) * self.cfg.control_pps_per_node * ctl_air;
            }
        }

        // 3. Exact emission counts for this window, per flow.
        let mut emissions: Vec<u64> = Vec::with_capacity(self.flows.len());
        let mut emit_base: Vec<u64> = Vec::with_capacity(self.flows.len());
        for acc in &mut self.flows {
            emit_base.push(acc.next_emit);
            let mut n = 0u64;
            loop {
                let t = acc.start_ns + acc.next_emit * acc.interval_ns;
                if t >= w1 || t >= acc.stop_ns || t >= self.end_ns {
                    break;
                }
                if t >= w0 {
                    n += 1;
                    acc.next_emit += 1;
                    acc.sent += 1;
                    if acc.first_sent_ns.is_none() {
                        acc.first_sent_ns = Some(t);
                    }
                } else {
                    // Catch the cursor up (can only happen on restore into
                    // a later step).
                    acc.next_emit += 1;
                }
            }
            emissions.push(n);
        }

        // 4. Routing geometry: one BFS per distinct source cell.
        let mut bfs_cache: BTreeMap<u32, (Vec<u32>, Vec<f64>)> = BTreeMap::new();
        let mut routes: Vec<Option<(Vec<u32>, u32)>> = Vec::with_capacity(self.flows.len());
        for (i, f) in self.cfg.flows.iter().enumerate() {
            if emissions[i] == 0 {
                routes.push(None);
                continue;
            }
            let sc = field.node_cell[f.src as usize];
            let dc = field.node_cell[f.dst as usize];
            let (parent, dist) = bfs_cache.entry(sc).or_insert_with(|| field.bfs(sc));
            if parent[dc as usize] == u32::MAX {
                routes.push(None);
                continue;
            }
            let hops = (dist[dc as usize] / self.rx_range).ceil().max(1.0) as u32;
            let cells = match self.cfg.discipline {
                RouteDiscipline::Unicast => {
                    // Walk the parent chain dst -> src.
                    let mut path = vec![dc];
                    let mut c = dc;
                    while c != sc {
                        c = parent[c as usize];
                        path.push(c);
                    }
                    path
                }
                RouteDiscipline::Flood => {
                    // The whole component forwards.
                    (0..field.len() as u32)
                        .filter(|&c| parent[c as usize] != u32::MAX)
                        .collect()
                }
            };
            routes.push(Some((cells, hops)));
        }

        // 5. Data load along each active route. Each flow's deposits are
        //    also kept per flow so its own closure can subtract them.
        let payload_air = |size: u32| b.data_airtime(size + b.data_overhead_bytes()).as_secs_f64();
        let mut deposits: Vec<Vec<(u32, f64)>> = vec![Vec::new(); self.cfg.flows.len()];
        for (i, f) in self.cfg.flows.iter().enumerate() {
            let Some((cells, _)) = &routes[i] else {
                continue;
            };
            let rate = emissions[i] as f64 / dt;
            match self.cfg.discipline {
                RouteDiscipline::Unicast => {
                    let exchange = payload_air(f.cbr.packet_size)
                        + b.control_airtime(b.ack_size_bytes()).as_secs_f64();
                    for &c in cells {
                        field.load[c as usize] += rate * exchange;
                        deposits[i].push((c, rate * exchange));
                    }
                }
                RouteDiscipline::Flood => {
                    let air = payload_air(f.cbr.packet_size);
                    for &c in cells {
                        let amount = f64::from(field.count[c as usize]) * rate * air;
                        field.load[c as usize] += amount;
                        deposits[i].push((c, amount));
                    }
                }
            }
        }

        // 6. Utilization field.
        field.integrate(1);

        // 7. Close each flow analytically.
        let mut step_digest: Vec<(u64, u64, u64)> = Vec::with_capacity(self.flows.len());
        let mut link_counts: Option<Vec<u32>> = None;
        for (i, f) in self.cfg.flows.iter().enumerate() {
            let n_emit = emissions[i];
            let (delivered, delay_s) = match &routes[i] {
                None => (0.0, 0.0),
                Some((cells, hops)) => {
                    // Foreign utilization only: the flow's own deposits are
                    // subtracted — its frames are serialized by the MAC and
                    // flood copies of the same packet are redundant, not
                    // competing, so only other traffic degrades delivery
                    // (the closure that keeps a lone flooded packet at the
                    // exact engine's PDR ≈ 1 in a saturated jam).
                    let foreign: Vec<f64> = match self.cfg.discipline {
                        // A path's deposits run dst to src, not in cell
                        // order, and are few: scan them per cell.
                        RouteDiscipline::Unicast => cells
                            .iter()
                            .map(|&c| {
                                (field.util[c as usize] - field.util_from(&deposits[i], c)).max(0.0)
                            })
                            .collect(),
                        // A flood deposits on every reached cell, in
                        // ascending id: one sweep gives them all.
                        RouteDiscipline::Flood => {
                            let own = field.deposit_util(&deposits[i]);
                            cells
                                .iter()
                                .map(|&c| (field.util[c as usize] - own[c as usize]).max(0.0))
                                .collect()
                        }
                    };
                    let mean_u = foreign.iter().sum::<f64>() / cells.len() as f64;
                    let max_u = foreign.iter().copied().fold(0.0f64, f64::max);
                    // Overloaded neighborhoods drain at their capacity.
                    let capacity = if max_u > 1.0 { 1.0 / max_u } else { 1.0 };
                    match self.cfg.discipline {
                        RouteDiscipline::Unicast => {
                            let p = mean_u.min(P_CAP_UNICAST);
                            let per_hop = b.unicast_delivery_probability(p);
                            let delay = b.unicast_service_time(f.cbr.packet_size, p).as_secs_f64()
                                * f64::from(*hops);
                            (per_hop.powi(*hops as i32) * capacity, delay)
                        }
                        RouteDiscipline::Flood => {
                            let p = mean_u.min(P_CAP_FLOOD);
                            // A receiver hears every forwarder within link
                            // range — own cell plus adjacent cells — so a
                            // packet gets that many independent chances per
                            // hop.
                            let near = link_counts.get_or_insert_with(|| field.link_counts());
                            let cover: f64 = cells
                                .iter()
                                .map(|&c| f64::from(near[c as usize]))
                                .sum::<f64>();
                            let redundancy = (cover / cells.len() as f64).clamp(1.0, 4.0);
                            let per_hop = 1.0 - p.powf(redundancy);
                            let hop_time = b.difs().as_secs_f64()
                                + b.mean_backoff(p).as_secs_f64()
                                + payload_air(f.cbr.packet_size);
                            (
                                per_hop.powi(*hops as i32) * capacity,
                                hop_time * f64::from(*hops),
                            )
                        }
                    }
                }
            };
            let delay_ns = (delay_s * 1e9) as u64;
            let acc = &mut self.flows[i];
            for k in 0..n_emit {
                let t = acc.start_ns + (emit_base[i] + k) * acc.interval_ns;
                let arrival = t + delay_ns;
                if arrival >= self.end_ns || delivered <= 0.0 {
                    continue;
                }
                acc.rx_acc += delivered;
                acc.delay_acc_s += delivered * delay_s;
                let bin = (arrival / 1_000_000_000) as usize;
                if bin < acc.bins.len() {
                    acc.bins[bin] += delivered * f64::from(f.cbr.packet_size);
                }
                if delivered > 1e-9 {
                    acc.max_delay_s = acc.max_delay_s.max(delay_s);
                    acc.last_rx_ns = Some(arrival);
                }
            }
            // Transmission estimates: every hop is a frame on air.
            let forwarders = match (&routes[i], self.cfg.discipline) {
                (Some((cells, _)), RouteDiscipline::Flood) => cells
                    .iter()
                    .map(|&c| f64::from(field.count[c as usize]))
                    .sum::<f64>(),
                (Some((_, hops)), RouteDiscipline::Unicast) => f64::from(*hops),
                (None, _) => 1.0,
            };
            self.est_tx += n_emit as f64 * forwarders;
            self.est_decoded += n_emit as f64 * forwarders * delivered;
            step_digest.push((n_emit, delivered.to_bits(), delay_ns));
        }
        self.est_tx += f64::from(self.cfg.nodes) * self.cfg.control_pps_per_node * dt;

        // 8. Fold the step into the determinism digest.
        self.digest.write(&self.step.to_le_bytes());
        self.digest.write(&(field.len() as u64).to_le_bytes());
        let u_sum: f64 = field.util.iter().sum();
        self.digest.write(&u_sum.to_bits().to_le_bytes());
        for (e, d, t) in step_digest {
            self.digest.write(&e.to_le_bytes());
            self.digest.write(&d.to_le_bytes());
            self.digest.write(&t.to_le_bytes());
        }

        self.step += 1;
    }

    /// A fingerprint of everything that shapes results (not `shards`,
    /// which does nothing); captured into snapshots so a fluid
    /// state never restores into a different model.
    pub fn config_fingerprint(&self) -> u64 {
        let c = &self.cfg;
        let mut s = format!(
            "{}|{}|{}|{:?}|{}|{}|{:?}",
            c.nodes,
            self.step_ns,
            self.end_ns,
            c.discipline,
            c.control_pps_per_node.to_bits(),
            c.control_payload_bytes,
            c.backend,
        );
        for f in &c.flows {
            s.push_str(&format!(
                "|{}>{}:{}@{}x{}-{}",
                f.src,
                f.dst,
                f.cbr.port,
                f.cbr.rate_pps.to_bits(),
                f.cbr.packet_size,
                f.cbr.stop.as_nanos(),
            ));
        }
        fnv64(s.as_bytes())
    }

    /// Serialize the dynamic state (not the configuration — the resuming
    /// side rebuilds that from the scenario, exactly like the exact
    /// engine's snapshot sections).
    pub fn capture(&self, w: &mut WireWriter) {
        w.put_u8(CAPTURE_VERSION);
        w.put_u64(self.config_fingerprint());
        w.put_u64(self.step);
        w.put_f64(self.est_tx);
        w.put_f64(self.est_decoded);
        w.put_u64(self.digest.finish());
        w.put_u32(self.flows.len() as u32);
        for acc in &self.flows {
            w.put_u64(acc.next_emit);
            w.put_u64(acc.sent);
            w.put_f64(acc.rx_acc);
            w.put_f64(acc.delay_acc_s);
            w.put_f64(acc.max_delay_s);
            w.put_bool(acc.first_sent_ns.is_some());
            w.put_u64(acc.first_sent_ns.unwrap_or(0));
            w.put_bool(acc.last_rx_ns.is_some());
            w.put_u64(acc.last_rx_ns.unwrap_or(0));
            w.put_u32(acc.bins.len() as u32);
            for &v in &acc.bins {
                w.put_f64(v);
            }
        }
    }

    /// Restore state captured by [`FluidEngine::capture`] into an engine
    /// built from the same configuration.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] when the snapshot was captured under a
    /// different fluid configuration (or capture version); any
    /// [`WireError`] for a truncated stream.
    pub fn restore(&mut self, r: &mut WireReader<'_>) -> Result<(), WireError> {
        let ver = r.get_u8()?;
        if ver != CAPTURE_VERSION {
            return Err(WireError::Malformed {
                what: "fluid capture version",
                value: u64::from(ver),
            });
        }
        let fp = r.get_u64()?;
        if fp != self.config_fingerprint() {
            return Err(WireError::Malformed {
                what: "fluid config fingerprint",
                value: fp,
            });
        }
        self.step = r.get_u64()?;
        self.est_tx = r.get_f64()?;
        self.est_decoded = r.get_f64()?;
        self.digest = Fnv64::from_state(r.get_u64()?);
        let n = r.get_u32()? as usize;
        if n != self.flows.len() {
            return Err(WireError::Malformed {
                what: "fluid flow count",
                value: n as u64,
            });
        }
        for acc in &mut self.flows {
            acc.next_emit = r.get_u64()?;
            acc.sent = r.get_u64()?;
            acc.rx_acc = r.get_f64()?;
            acc.delay_acc_s = r.get_f64()?;
            acc.max_delay_s = r.get_f64()?;
            let have_first = r.get_bool()?;
            let first = r.get_u64()?;
            acc.first_sent_ns = have_first.then_some(first);
            let have_last = r.get_bool()?;
            let last = r.get_u64()?;
            acc.last_rx_ns = have_last.then_some(last);
            let bins = r.get_u32()? as usize;
            if bins != acc.bins.len() {
                return Err(WireError::Malformed {
                    what: "fluid goodput bin count",
                    value: bins as u64,
                });
            }
            for v in &mut acc.bins {
                *v = r.get_f64()?;
            }
        }
        Ok(())
    }

    /// Current results. Callable mid-run; final once
    /// [`finished`](Self::finished).
    pub fn report(&self) -> FluidReport {
        let flows = self
            .cfg
            .flows
            .iter()
            .zip(&self.flows)
            .map(|(f, acc)| {
                let received = (acc.rx_acc.round() as u64).min(acc.sent);
                FluidFlowReport {
                    src: f.src,
                    dst: f.dst,
                    port: f.cbr.port,
                    sent: acc.sent,
                    received,
                    bytes_sent: acc.sent * u64::from(f.cbr.packet_size),
                    bytes_received: received * u64::from(f.cbr.packet_size),
                    mean_delay: (acc.rx_acc > 0.0)
                        .then(|| Duration::from_secs_f64(acc.delay_acc_s / acc.rx_acc)),
                    max_delay: (acc.max_delay_s > 0.0)
                        .then(|| Duration::from_secs_f64(acc.max_delay_s)),
                    first_sent: acc.first_sent_ns.map(Duration::from_nanos),
                    last_received: acc.last_rx_ns.map(Duration::from_nanos),
                    goodput_bps: acc.bins.iter().map(|&bytes| bytes * 8.0).collect(),
                }
            })
            .collect();
        FluidReport {
            flows,
            steps: self.step,
            digest: self.digest(),
            est_transmissions: self.est_tx.round() as u64,
            est_decoded: self.est_decoded.round() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FluidFlow;
    use cavenet_mobility::{NodeTrajectory, TraceSample};
    use cavenet_traffic::CbrConfig;

    fn static_trace(points: &[(f64, f64)]) -> MobilityTrace {
        let nodes = points
            .iter()
            .map(|&(x, y)| {
                NodeTrajectory::new(vec![TraceSample {
                    time: 0.0,
                    position: Point2::new(x, y),
                    speed: 0.0,
                    teleport: false,
                }])
                .expect("one sample is ordered")
            })
            .collect();
        MobilityTrace::from_trajectories(nodes)
    }

    fn cbr(port: u16) -> CbrConfig {
        CbrConfig {
            rate_pps: 5.0,
            packet_size: 512,
            start: Duration::from_secs(1),
            stop: Duration::from_secs(9),
            port,
        }
    }

    fn line_cfg(n: u32, spacing: f64, flows: Vec<FluidFlow>) -> (FluidConfig, MobilityTrace) {
        let pts: Vec<(f64, f64)> = (0..n).map(|i| (f64::from(i) * spacing, 0.0)).collect();
        let mut cfg = FluidConfig::ns2_default(n, Duration::from_secs(10));
        cfg.flows = flows;
        (cfg, static_trace(&pts))
    }

    #[test]
    fn adjacent_nodes_deliver_nearly_everything() {
        let (cfg, trace) = line_cfg(
            2,
            100.0,
            vec![FluidFlow {
                src: 0,
                dst: 1,
                cbr: cbr(5000),
            }],
        );
        let mut e = FluidEngine::new(cfg, trace).expect("valid");
        e.run_to_end();
        let r = e.report();
        assert_eq!(r.flows[0].sent, 40, "5 pps over (1 s, 9 s)");
        assert!(r.flows[0].pdr() > 0.95, "pdr={}", r.flows[0].pdr());
        let d = r.flows[0].mean_delay.expect("delivered").as_secs_f64();
        assert!(d > 1e-3 && d < 20e-3, "one-hop delay {d}");
    }

    #[test]
    fn partitioned_nodes_deliver_nothing() {
        let (cfg, trace) = line_cfg(
            2,
            5_000.0,
            vec![FluidFlow {
                src: 0,
                dst: 1,
                cbr: cbr(5000),
            }],
        );
        let mut e = FluidEngine::new(cfg, trace).expect("valid");
        e.run_to_end();
        let r = e.report();
        assert_eq!(r.flows[0].sent, 40);
        assert_eq!(r.flows[0].received, 0);
        assert!(r.flows[0].mean_delay.is_none());
    }

    #[test]
    fn multi_hop_costs_more_delay_than_one_hop() {
        let flow = |src, dst| FluidFlow {
            src,
            dst,
            cbr: cbr(5000),
        };
        let run = |n, src, dst| {
            let (cfg, trace) = line_cfg(n, 200.0, vec![flow(src, dst)]);
            let mut e = FluidEngine::new(cfg, trace).expect("valid");
            e.run_to_end();
            e.report().flows[0].clone()
        };
        let near = run(12, 0, 1);
        let far = run(12, 0, 11);
        assert!(far.pdr() > 0.5, "connected line must mostly deliver");
        assert!(
            far.mean_delay.expect("delivered") > near.mean_delay.expect("delivered"),
            "11 hops must cost more than 1"
        );
    }

    #[test]
    fn flooding_reaches_the_whole_component() {
        let (mut cfg, trace) = line_cfg(
            10,
            200.0,
            vec![FluidFlow {
                src: 0,
                dst: 9,
                cbr: cbr(5000),
            }],
        );
        cfg.discipline = RouteDiscipline::Flood;
        cfg.control_pps_per_node = 0.0;
        let mut e = FluidEngine::new(cfg, trace).expect("valid");
        e.run_to_end();
        let r = e.report();
        assert!(r.flows[0].pdr() > 0.8, "pdr={}", r.flows[0].pdr());
        // Every node in the component forwards: far more transmissions
        // than packets.
        assert!(r.est_transmissions > r.flows[0].sent * 5);
    }

    #[test]
    fn a_lone_flood_is_not_choked_by_its_own_storm() {
        // A saturated jam: 500 nodes at 2 m spacing, one flow flooding a
        // handful of packets. The storm is entirely the flow's own load —
        // redundant copies of the same packet — so delivery must stay
        // near-certain, as the exact engine's jam-ring run shows (the
        // receiver hears the source directly before the storm starts).
        let pts: Vec<(f64, f64)> = (0..500).map(|i| (f64::from(i) * 2.0, 0.0)).collect();
        let mut cfg = FluidConfig::ns2_default(500, Duration::from_secs(10));
        cfg.discipline = RouteDiscipline::Flood;
        cfg.control_pps_per_node = 0.0;
        cfg.flows = vec![FluidFlow {
            src: 1,
            dst: 0,
            cbr: cbr(5000),
        }];
        let mut e = FluidEngine::new(cfg, static_trace(&pts)).expect("valid");
        e.run_to_end();
        let r = e.report();
        assert!(
            r.flows[0].pdr() > 0.95,
            "own flood storm choked delivery: pdr={}",
            r.flows[0].pdr()
        );
    }

    #[test]
    fn far_coordinates_run_a_step() {
        // ±1e12 m lies beyond the i32 cell range: each pair of nodes shares
        // a saturated extreme column, and the two pairs stay apart.
        let pts = [(1e12, 0.0), (1e12, 130.0), (-1e12, 0.0), (-1e12, 130.0)];
        let mut cfg = FluidConfig::ns2_default(4, Duration::from_secs(10));
        cfg.flows = vec![
            FluidFlow {
                src: 0,
                dst: 1,
                cbr: cbr(5000),
            },
            FluidFlow {
                src: 2,
                dst: 0,
                cbr: cbr(5001),
            },
        ];
        for discipline in [RouteDiscipline::Unicast, RouteDiscipline::Flood] {
            cfg.discipline = discipline;
            let mut e = FluidEngine::new(cfg.clone(), static_trace(&pts)).expect("valid");
            e.run_until_ns(2_000_000_000);
            assert_eq!(e.steps_done(), 2);
            e.run_to_end();
            let r = e.report();
            assert!(
                r.flows[0].pdr() > 0.95,
                "{discipline:?}: {}",
                r.flows[0].pdr()
            );
            assert_eq!(r.flows[1].received, 0, "{discipline:?}");
        }
    }

    #[test]
    fn contention_degrades_heavily_loaded_cells() {
        // 60 nodes stacked within one carrier-sense region, all sending:
        // utilization must push collision probability up and PDR down
        // relative to a quiet pair.
        let pts: Vec<(f64, f64)> = (0..60).map(|i| (f64::from(i) * 4.0, 0.0)).collect();
        let mut cfg = FluidConfig::ns2_default(60, Duration::from_secs(10));
        cfg.flows = (0..30)
            .map(|i| FluidFlow {
                src: i,
                dst: i + 30,
                cbr: CbrConfig {
                    rate_pps: 40.0,
                    ..cbr(5000 + i as u16)
                },
            })
            .collect();
        let mut e = FluidEngine::new(cfg, static_trace(&pts)).expect("valid");
        e.run_to_end();
        let r = e.report();
        let mean_pdr: f64 =
            r.flows.iter().map(FluidFlowReport::pdr).sum::<f64>() / r.flows.len() as f64;
        assert!(
            mean_pdr < 0.9,
            "30 x 40 pps in one CS region must contend (mean pdr {mean_pdr})"
        );
        assert!(mean_pdr > 0.0);
    }

    #[test]
    fn runs_are_bit_identical_and_shard_invariant() {
        let mk = |shards| {
            let (mut cfg, trace) = line_cfg(
                40,
                150.0,
                vec![
                    FluidFlow {
                        src: 0,
                        dst: 39,
                        cbr: cbr(5000),
                    },
                    FluidFlow {
                        src: 5,
                        dst: 20,
                        cbr: cbr(5001),
                    },
                ],
            );
            cfg.shards = shards;
            let mut e = FluidEngine::new(cfg, trace).expect("valid");
            e.run_to_end();
            e
        };
        let a = mk(1);
        let b = mk(1);
        let c = mk(4);
        assert_eq!(a.digest(), b.digest(), "reruns must be bit-identical");
        assert_eq!(a.digest(), c.digest(), "shards must not change results");
        assert_eq!(a.report(), c.report());
    }

    #[test]
    fn capture_restore_resumes_identically() {
        let build = || {
            let (cfg, trace) = line_cfg(
                20,
                180.0,
                vec![FluidFlow {
                    src: 0,
                    dst: 19,
                    cbr: cbr(5000),
                }],
            );
            FluidEngine::new(cfg, trace).expect("valid")
        };
        let mut straight = build();
        straight.run_to_end();

        let mut first = build();
        first.run_until_ns(4_000_000_000);
        assert_eq!(first.now_ns(), 4_000_000_000);
        let mut w = WireWriter::new();
        first.capture(&mut w);
        let bytes = w.into_bytes();

        let mut resumed = build();
        let mut r = WireReader::new(&bytes);
        resumed.restore(&mut r).expect("round-trip");
        r.finish().expect("fully consumed");
        resumed.run_to_end();

        assert_eq!(resumed.digest(), straight.digest());
        assert_eq!(resumed.report(), straight.report());
    }

    #[test]
    fn restore_refuses_a_different_model() {
        let (cfg, trace) = line_cfg(
            4,
            100.0,
            vec![FluidFlow {
                src: 0,
                dst: 3,
                cbr: cbr(5000),
            }],
        );
        let e = FluidEngine::new(cfg.clone(), trace.clone()).expect("valid");
        let mut w = WireWriter::new();
        e.capture(&mut w);
        let bytes = w.into_bytes();

        let mut other_cfg = cfg;
        other_cfg.discipline = RouteDiscipline::Flood;
        let mut other = FluidEngine::new(other_cfg, trace).expect("valid");
        let err = other.restore(&mut WireReader::new(&bytes));
        assert!(matches!(err, Err(WireError::Malformed { .. })));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let trace = static_trace(&[(0.0, 0.0), (10.0, 0.0)]);
        let cfg = FluidConfig::ns2_default(0, Duration::from_secs(1));
        assert_eq!(
            FluidEngine::new(cfg, trace.clone()).err(),
            Some(FluidError::EmptyScenario)
        );
        let mut cfg = FluidConfig::ns2_default(2, Duration::from_secs(1));
        cfg.flows.push(FluidFlow {
            src: 0,
            dst: 7,
            cbr: cbr(1),
        });
        assert_eq!(
            FluidEngine::new(cfg, trace.clone()).err(),
            Some(FluidError::BadFlow { src: 0, dst: 7 })
        );
        let mut cfg = FluidConfig::ns2_default(2, Duration::from_secs(1));
        cfg.step = Duration::ZERO;
        assert_eq!(
            FluidEngine::new(cfg, trace).err(),
            Some(FluidError::BadStep)
        );
    }

    /// A backend the exact engine refuses, or one with no finite reception
    /// range, is refused at build with the field it names, instead of
    /// panicking in an airtime mid-run or sizing cells by infinity.
    #[test]
    fn bad_backends_are_refused_at_build() {
        use cavenet_net::ExactBackend;
        let trace = static_trace(&[(0.0, 0.0), (10.0, 0.0)]);
        let refusal = |spoil: fn(&mut ExactBackend)| {
            let mut cfg = FluidConfig::ns2_default(2, Duration::from_secs(1));
            spoil(&mut cfg.backend);
            FluidEngine::new(cfg, trace.clone()).err()
        };
        let bad = |field| Some(FluidError::BadConfig { field });
        let data_rate = bad("phy.data_rate_bps");
        assert_eq!(refusal(|b| b.phy.data_rate_bps = 0.0), data_rate);
        assert_eq!(refusal(|b| b.phy.data_rate_bps = f64::NAN), data_rate);
        let basic_rate = bad("phy.basic_rate_bps");
        assert_eq!(refusal(|b| b.phy.basic_rate_bps = 0.0), basic_rate);
        assert_eq!(refusal(|b| b.phy.basic_rate_bps = f64::NAN), basic_rate);
        assert_eq!(refusal(|b| b.mac.slot = Duration::ZERO), bad("mac.slot"));
        assert_eq!(refusal(|b| b.mac.cw_max = u32::MAX), bad("mac.cw_max"));
        let threshold = bad("phy.rx_threshold_w");
        assert_eq!(refusal(|b| b.phy.rx_threshold_w = 0.0), threshold);
        assert_eq!(refusal(|b| b.phy.rx_threshold_w = -1.0), threshold);
    }
}
