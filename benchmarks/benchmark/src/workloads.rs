//! The four workloads: their seeded inputs, and one untraced and one
//! traced way to run each trial.
//!
//! An untraced exact trial is `Experiment::build_sim(NoopObserver)` →
//! `run_until(end)` → `collect`, and a fluid one `build_fluid` →
//! `run_to_end` → `collect_fluid`: the work `Experiment::run()` does. A
//! traced trial rebuilds the same simulator from public parts with the
//! ledger's wrappers and observer attached, and must reproduce the
//! untraced fingerprint.

use std::error::Error;
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

use cavenet_core::checkpoint::store;
use cavenet_core::fluid::{FluidConfig, FluidEngine, FluidFlow, RouteDiscipline};
use cavenet_core::mobility::{LaneGeometry, MobilityTrace, NodeTrajectory, TraceSample};
use cavenet_core::net::{
    ChannelBackend, ExactBackend, NodeId, NoopObserver, ScenarioConfig, SimTime, Simulator,
};
use cavenet_core::traffic::{CbrSink, CbrSource, SharedRecorder, TrafficRecorder};
use cavenet_core::{
    Experiment, ExperimentResult, Fidelity, MobilitySource, Protocol, Scenario, ScenarioError,
    TraceMobility,
};
use cavenet_server::{CampaignServer, ServerConfig, TrialOutcome};
use cavenet_telemetry::{Counter, SnapshotBus};
use cavenet_testkit::GoldenDigest;

use crate::ledger::{
    take_wrapper_times, LayerClock, Ledger, TimedApp, TimedMobility, TimedRouting,
};

pub type BoxError = Box<dyn Error>;

/// Jam-ring geometry, shared with the repository's scale and fidelity
/// reports: 2 m mean headway, 3 m/s creep.
const HEADWAY_M: f64 = 2.0;
const JITTER_M: f64 = 0.5;
const CREEP_MPS: f64 = 3.0;
const JAM_SECS: u64 = 4;
const FLUID_SECS: u64 = 30;

/// Supervised-campaign cadence and streaming settings.
const CHECKPOINT_EVERY: Duration = Duration::from_secs(4);
const BUS_CAPACITY: usize = 4096;
const SNAPSHOT_STRIDE: u64 = 4096;
const STATUS_POLL: Duration = Duration::from_millis(10);

/// Table-1 CA mobility patterns are pinned to the paper's trial seeds
/// `1..=MOBILITY_POOL`: the CA seed alone moves a trial's cost by up to 5x,
/// so pinning it keeps every run's work comparable. The benchmark seed
/// still changes every event stream through the CBR phase.
const MOBILITY_POOL: u64 = 8;
/// CBR phase offsets span one packet interval (5 packets/s).
const CBR_PHASE_NS: u64 = 200_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Table1Protocols,
    JamRing100k,
    FluidJam100k,
    CampaignTable1,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Table1Protocols,
        Workload::JamRing100k,
        Workload::FluidJam100k,
        Workload::CampaignTable1,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1Protocols => "table1_protocols",
            Workload::JamRing100k => "jam_ring_100k",
            Workload::FluidJam100k => "fluid_jam_100k",
            Workload::CampaignTable1 => "campaign_table1",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Op-set sizes. One cycle of ops is the workload's whole op set; a run
/// repeats it until its time is up.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub rounds: usize,
    pub jam_nodes: usize,
    pub jam_trials: usize,
    pub fluid_nodes: usize,
    pub fluid_trials: usize,
    pub batches: usize,
    pub batch_trials: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        rounds: 4,
        jam_nodes: 100_000,
        jam_trials: 6,
        fluid_nodes: 100_000,
        fluid_trials: 8,
        batches: 4,
        batch_trials: 8,
    };

    /// About an eighth of the work of [`Sizes::FULL`], for tests.
    pub const QUICK: Sizes = Sizes {
        rounds: 1,
        jam_nodes: 12_500,
        jam_trials: 1,
        fluid_nodes: 12_500,
        fluid_trials: 1,
        batches: 1,
        batch_trials: 2,
    };

    /// Ops in one cycle: rounds, trials, trials or batches.
    pub fn cycle(&self, w: Workload) -> usize {
        match w {
            Workload::Table1Protocols => self.rounds,
            Workload::JamRing100k => self.jam_trials,
            Workload::FluidJam100k => self.fluid_trials,
            Workload::CampaignTable1 => self.batches,
        }
    }
}

/// The splitmix64 generator, for the benchmark's own seeded inputs.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Stream `stream` of the benchmark seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix64(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Table-1 trial `trial`: mobility pattern `trial % MOBILITY_POOL`, CBR
/// start shifted by a phase drawn from the benchmark seed.
fn table1_trial(protocol: Protocol, trial: u64, seed: u64) -> Scenario {
    let mut s = Scenario::paper_table1(protocol);
    s.seed = trial % MOBILITY_POOL + 1;
    let phase = SplitMix64::new(seed, trial).next_u64() % CBR_PHASE_NS;
    s.traffic.cbr.start += Duration::from_nanos(phase);
    s
}

/// The saturated jam ring: `nodes` vehicles at a jittered 2 m headway
/// creeping at 3 m/s for `secs`, two flooded CBR packets.
fn jam_scenario(nodes: usize, secs: u64, seed: u64, trial: u64) -> Scenario {
    let circuit = nodes as f64 * HEADWAY_M;
    let geometry = LaneGeometry::ring_circle(circuit);
    let mut rng = SplitMix64::new(seed, trial);
    let trajectories = (0..nodes)
        .map(|i| {
            let s0 = i as f64 * HEADWAY_M + (2.0 * rng.unit() - 1.0) * JITTER_M;
            let samples = (0..=secs)
                .map(|t| TraceSample {
                    time: t as f64,
                    position: geometry.embed((s0 + CREEP_MPS * t as f64).rem_euclid(circuit)),
                    speed: CREEP_MPS,
                    teleport: false,
                })
                .collect();
            NodeTrajectory::new(samples).expect("monotone jam samples")
        })
        .collect();
    let mut s = Scenario::paper_table1(Protocol::Flooding);
    s.nodes = nodes;
    s.circuit_m = circuit;
    s.mobility = MobilitySource::Trace(MobilityTrace::from_trajectories(trajectories));
    s.sim_time = Duration::from_secs(secs);
    s.traffic.senders = vec![1];
    s.traffic.receiver = 0;
    s.traffic.cbr.start = Duration::from_secs(1);
    s.traffic.cbr.stop = Duration::from_secs(3);
    s.traffic.cbr.rate_pps = 0.6; // packets at 1 s and 2.67 s
    s.seed = seed.wrapping_add(trial);
    s
}

/// The trials of op `op` (taken modulo the cycle, so a repeated op has
/// identical inputs).
pub fn op_trials(w: Workload, sizes: &Sizes, seed: u64, op: usize) -> Vec<Scenario> {
    let k = (op % sizes.cycle(w)) as u64;
    match w {
        Workload::Table1Protocols => crate::ledger::PROTOCOLS
            .iter()
            .map(|&p| table1_trial(p, k, seed))
            .collect(),
        Workload::JamRing100k => vec![jam_scenario(sizes.jam_nodes, JAM_SECS, seed, k)],
        Workload::FluidJam100k => {
            let mut s = jam_scenario(sizes.fluid_nodes, FLUID_SECS, seed, k);
            s.fidelity = Fidelity::Fluid;
            vec![s]
        }
        // Every batch submits the same trials, AODV and DYMO alternating.
        Workload::CampaignTable1 => (0..sizes.batch_trials as u64)
            .map(|i| {
                let p = if i % 2 == 0 {
                    Protocol::Aodv
                } else {
                    Protocol::Dymo
                };
                table1_trial(p, i, seed)
            })
            .collect(),
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

fn end_time(s: &Scenario) -> SimTime {
    SimTime::from_secs_f64(s.sim_time.as_secs_f64())
}

/// FNV-1a over everything an exact trial reports: global counters
/// (events included), each sender's flow metrics and goodput series,
/// control and forwarding counts, and the drop breakdown.
pub fn fingerprint(r: &ExperimentResult) -> u64 {
    let mut h = GoldenDigest::new();
    let g = &r.global;
    for v in [
        g.transmissions,
        g.decoded,
        g.collisions,
        g.rx_while_tx,
        g.events_processed,
    ] {
        h.absorb_u64(v);
    }
    let opt = |d: Option<u64>| d.map_or(u64::MAX, |v| v);
    for s in &r.senders {
        let m = &s.metrics;
        for v in [
            u64::from(s.sender),
            u64::from(m.flow.src.0),
            u64::from(m.flow.dst.0),
            u64::from(m.flow.port),
            m.sent,
            m.received,
            m.duplicates,
            m.bytes_sent,
            m.bytes_received,
            opt(m.mean_delay.map(|d| d.as_nanos() as u64)),
            opt(m.max_delay.map(|d| d.as_nanos() as u64)),
            opt(m.first_sent.map(|t| t.as_nanos())),
            opt(m.last_received.map(|t| t.as_nanos())),
        ] {
            h.absorb_u64(v);
        }
        for &g in &s.goodput_series {
            h.absorb_f64(g);
        }
    }
    for v in [r.control_packets, r.control_bytes, r.data_forwarded] {
        h.absorb_u64(v);
    }
    for (_, n) in r.drops.iter() {
        h.absorb_u64(n);
    }
    h.value()
}

/// One untraced trial.
pub struct TrialRun {
    pub setup_ns: u64,
    pub wall_ns: u64,
    /// [`fingerprint`] of the result, or the fluid engine's digest.
    pub fingerprint: u64,
}

/// Run one trial untraced: set-up is scenario to ready engine.
pub fn run_trial(s: Scenario) -> Result<TrialRun, BoxError> {
    let exp = Experiment::new(s);
    let t0 = Instant::now();
    // Wall time stops before the engine is dropped, as in a traced trial.
    let (setup_ns, wall_ns, fingerprint, sent) = if exp.scenario().fidelity == Fidelity::Fluid {
        let mut engine = exp.build_fluid()?;
        let setup_ns = elapsed_ns(t0);
        engine.run_to_end();
        let result = exp.collect_fluid(&engine);
        (
            setup_ns,
            elapsed_ns(t0),
            engine.digest(),
            result.total_sent(),
        )
    } else {
        let (mut sim, recorder) = exp.build_sim(NoopObserver)?;
        let setup_ns = elapsed_ns(t0);
        sim.run_until(end_time(exp.scenario()));
        let result = exp.collect(&sim, &recorder);
        (
            setup_ns,
            elapsed_ns(t0),
            fingerprint(&result),
            result.total_sent(),
        )
    };
    if sent == 0 {
        return Err("vacuous trial: no CBR packet was sent".into());
    }
    Ok(TrialRun {
        setup_ns,
        wall_ns,
        fingerprint,
    })
}

fn scenario_config(s: &Scenario) -> ScenarioConfig {
    let mut config = ScenarioConfig {
        propagation: s.propagation,
        ..ScenarioConfig::default()
    };
    if s.rts_cts {
        config.mac.rts_threshold = Some(0);
    }
    config
}

/// `Experiment::build_sim` rebuilt from public parts, with the ledger's
/// wrappers around mobility, routing and every application, and a
/// [`LayerClock`] as observer.
fn build_traced(
    exp: &Experiment,
    ledger: &mut Ledger,
) -> Result<(Simulator<LayerClock>, SharedRecorder), ScenarioError> {
    let s = exp.scenario();
    s.validate()?;
    let t = Instant::now();
    let trace = s.build_trace()?;
    ledger.trace_build_ns += elapsed_ns(t);
    let mobility = match s.mobility_quantum {
        Some(q) => TraceMobility::quantized(trace, q),
        None => TraceMobility::new(trace),
    };
    let recorder = TrafficRecorder::new_shared();
    let protocol = s.protocol;
    let mut builder = Simulator::builder(scenario_config(s))
        .observer(LayerClock::default())
        .nodes(s.nodes)
        .seed(s.seed)
        .mobility(Box::new(TimedMobility(mobility)))
        .neighbor_grid(s.neighbor_grid)
        .shards(s.shards)
        .fault_plan(s.fault_plan.clone())
        .routing_with(move |_| Box::new(TimedRouting::new(protocol)));
    for &sender in &s.traffic.senders {
        let source = CbrSource::new(
            NodeId(s.traffic.receiver),
            s.traffic.cbr,
            Rc::clone(&recorder),
        );
        builder = builder.app(sender as usize, Box::new(TimedApp(Box::new(source))));
    }
    let sink = CbrSink::new(Rc::clone(&recorder));
    builder = builder.app(
        s.traffic.receiver as usize,
        Box::new(TimedApp(Box::new(sink))),
    );
    let t = Instant::now();
    let sim = builder.try_build().map_err(ScenarioError::Fault)?;
    ledger.engine_build_ns += elapsed_ns(t);
    Ok((sim, recorder))
}

/// Run one exact trial traced, returning its fingerprint. With
/// `checkpoints`, the run advances in 4 s slices and snapshots each slice
/// end into that directory (timing capture, encode and write), then
/// resumes the last snapshot and checks that it collects the same result.
pub fn run_traced_exact(
    s: Scenario,
    ledger: &mut Ledger,
    checkpoints: Option<&Path>,
) -> Result<u64, BoxError> {
    take_wrapper_times();
    let exp = Experiment::new(s);
    let t0 = Instant::now();
    let (mut sim, recorder) = build_traced(&exp, ledger)?;
    let end = end_time(exp.scenario()).as_nanos();
    let every = CHECKPOINT_EVERY.as_nanos() as u64;
    let mut checkpoint_ns = 0;
    let mut last = None;
    loop {
        let target = match checkpoints {
            Some(_) => (sim.now().as_nanos() / every + 1)
                .saturating_mul(every)
                .min(end),
            None => end,
        };
        let t = Instant::now();
        sim.run_until(SimTime::from_nanos(target));
        sim.observer_mut().close();
        ledger.run_ns += elapsed_ns(t);
        if let Some(dir) = checkpoints {
            let t = Instant::now();
            let snap = exp.snapshot_now(&sim, &recorder)?;
            let captured = Instant::now();
            let bytes = snap.to_bytes();
            let encoded = Instant::now();
            store::write_snapshot(dir, target, &snap)?;
            ledger.capture_ns += captured.duration_since(t).as_nanos() as u64;
            ledger.encode_ns += encoded.duration_since(captured).as_nanos() as u64;
            ledger.write_ns += elapsed_ns(encoded);
            ledger.snapshot_bytes += bytes.len() as u64;
            ledger.snapshots += 1;
            checkpoint_ns += elapsed_ns(t);
            last = Some(snap);
        }
        if target >= end {
            break;
        }
    }
    let t = Instant::now();
    let result = exp.collect(&sim, &recorder);
    ledger.collect_ns += elapsed_ns(t);
    let engine_ns = elapsed_ns(t0) - checkpoint_ns;
    let fingerprint = fingerprint(&result);
    let mut trial_ns = engine_ns + checkpoint_ns;
    if let Some(snap) = last {
        let t = Instant::now();
        let (resumed, resumed_recorder, _) = exp.resume_from_snapshot(NoopObserver, &snap)?;
        let restore_ns = elapsed_ns(t);
        ledger.restore_ns += restore_ns;
        trial_ns += restore_ns;
        if self::fingerprint(&exp.collect(&resumed, &resumed_recorder)) != fingerprint {
            return Err("resuming the last snapshot changed the result".into());
        }
    }
    for i in 0..sim.node_count() {
        let m = sim.mac_stats(i);
        ledger.mac_retries += m.retries;
        ledger.mac_retry_drops += m.retry_drops;
        ledger.mac_queue_drops += m.queue_drops;
        ledger.mac_queue_hwm_max = ledger.mac_queue_hwm_max.max(m.queue_hwm);
    }
    ledger.data_drops += result.drops.total();
    ledger.control_packets += result.control_packets;
    ledger.control_bytes += result.control_bytes;
    ledger.sent += result.total_sent();
    ledger.received += result.total_received();
    ledger.absorb_engine(sim.observer(), &take_wrapper_times());
    ledger.trials += 1;
    ledger.traced_ns += trial_ns;
    ledger.engine_ns += engine_ns;
    Ok(fingerprint)
}

/// `Experiment::build_fluid`'s configuration for a flooding scenario, the
/// only protocol the fluid workload runs (no control plane).
fn fluid_flood_config(s: &Scenario) -> Result<FluidConfig, BoxError> {
    if s.protocol != Protocol::Flooding {
        return Err("the traced fluid path models flooding only".into());
    }
    Ok(FluidConfig {
        nodes: s.nodes as u32,
        sim_time: s.sim_time,
        step: Duration::from_secs(1),
        backend: ExactBackend::from(&scenario_config(s)),
        discipline: RouteDiscipline::Flood,
        control_pps_per_node: 0.0,
        control_payload_bytes: 0,
        flows: s
            .traffic
            .senders
            .iter()
            .map(|&src| FluidFlow {
                src,
                dst: s.traffic.receiver,
                cbr: s.traffic.cbr,
            })
            .collect(),
        shards: s.shards as u32,
    })
}

/// Run one fluid trial traced, returning its digest. Every `step_once` is
/// timed, and before the middle step the public kernels run once more, on
/// the same midpoint positions, as a shadow probe.
pub fn run_traced_fluid(s: Scenario, ledger: &mut Ledger) -> Result<u64, BoxError> {
    let exp = Experiment::new(s);
    let s = exp.scenario();
    let t0 = Instant::now();
    s.validate()?;
    let t = Instant::now();
    let trace = s.build_trace()?;
    ledger.trace_build_ns += elapsed_ns(t);
    let cfg = fluid_flood_config(s)?;
    let t = Instant::now();
    let mut engine = FluidEngine::new(cfg, trace).map_err(ScenarioError::Fluid)?;
    ledger.engine_build_ns += elapsed_ns(t);
    let probe_step = s.sim_time.as_secs() / 2;
    let mut probe_ns = 0;
    while !engine.finished() {
        if engine.steps_done() == probe_step {
            let t = Instant::now();
            probe_fluid_kernels(s, &engine, ledger)?;
            probe_ns += elapsed_ns(t);
        }
        let t = Instant::now();
        engine.step_once();
        ledger.fluid_step_ns += elapsed_ns(t);
        ledger.fluid_steps += 1;
    }
    let t = Instant::now();
    let result = exp.collect_fluid(&engine);
    ledger.collect_ns += elapsed_ns(t);
    let engine_ns = elapsed_ns(t0) - probe_ns;
    ledger.control_packets += result.control_packets;
    ledger.control_bytes += result.control_bytes;
    ledger.sent += result.total_sent();
    ledger.received += result.total_received();
    ledger.trials += 1;
    ledger.traced_ns += engine_ns;
    ledger.engine_ns += engine_ns;
    Ok(engine.digest())
}

fn probe_fluid_kernels(
    s: &Scenario,
    engine: &FluidEngine,
    ledger: &mut Ledger,
) -> Result<(), BoxError> {
    let MobilitySource::Trace(trace) = &s.mobility else {
        return Err("the fluid probe needs a trace-driven scenario".into());
    };
    let backend = engine.config().backend;
    let rx_range = backend.rx_range();
    let cs_range = backend.carrier_sense_cutoff().unwrap_or(2.0 * rx_range);
    let w0 = engine.now_ns();
    let w1 = (w0 + 1_000_000_000).min(s.sim_time.as_nanos() as u64);
    let mid = (w0 + (w1 - w0) / 2) as f64 * 1e-9;
    let t = Instant::now();
    let positions = (0..s.nodes)
        .map(|id| trace.position_at(id, mid))
        .collect::<Result<Vec<_>, _>>()?;
    let sampled = Instant::now();
    let mut field = cavenet_core::fluid::Field::bin(&positions, rx_range / 2.0, cs_range);
    let binned = Instant::now();
    field.integrate(1);
    let integrated = Instant::now();
    let src = s.traffic.senders.first().copied().unwrap_or(0);
    std::hint::black_box(field.bfs(field.node_cell[src as usize]));
    let probe = &mut ledger.fluid_probe_ns;
    probe[0] += sampled.duration_since(t).as_nanos() as u64;
    probe[1] += binned.duration_since(sampled).as_nanos() as u64;
    probe[2] += integrated.duration_since(binned).as_nanos() as u64;
    probe[3] += elapsed_ns(integrated);
    ledger.fluid_cells += field.len() as u64;
    Ok(())
}

/// One supervised batch.
pub struct BatchRun {
    /// Server start and admission of every trial.
    pub setup_ns: u64,
    pub wall_ns: u64,
    /// Each trial's golden digest, in submission order.
    pub digests: Vec<Option<u64>>,
    pub retries: u64,
    pub stalls: u64,
    pub lost: u64,
    pub sheds: u64,
    pub stream_snapshots: u64,
    pub feed_bytes: u64,
    pub shed: u64,
    pub dir_bytes: u64,
}

/// Run `trials` under a `CampaignServer` with one worker, checkpointing
/// every 4 s of simulated time under a fresh `root`. With `stream`, every
/// trial publishes onto a snapshot bus that this thread drains between
/// `status()` polls. `measure` adds the feed rendering and directory walk
/// the traced run reports.
pub fn run_batch(
    trials: &[Scenario],
    root: &Path,
    seed: u64,
    stream: bool,
    measure: bool,
) -> Result<BatchRun, BoxError> {
    let bus = stream.then(|| SnapshotBus::new(BUS_CAPACITY));
    let config = ServerConfig {
        workers: 1,
        checkpoint_every: CHECKPOINT_EVERY,
        bus: bus.clone(),
        snapshot_stride: SNAPSHOT_STRIDE,
        seed,
        ..ServerConfig::new(root)
    };
    let t0 = Instant::now();
    let server = CampaignServer::start(config)?;
    let ids = trials
        .iter()
        .map(|s| server.submit(s.clone()))
        .collect::<Result<Vec<_>, _>>()?;
    let setup_ns = elapsed_ns(t0);
    let mut stream_snapshots = 0;
    let mut feed_bytes = 0;
    let mut drain = |bus: &SnapshotBus| {
        for envelope in bus.drain() {
            stream_snapshots += 1;
            if measure {
                feed_bytes += envelope.render_line().len() as u64 + 1;
            }
        }
    };
    loop {
        if let Some(bus) = &bus {
            drain(bus);
        }
        let status = server.status();
        if status.queued == 0 && status.delayed == 0 && status.running.is_empty() {
            break;
        }
        std::thread::sleep(STATUS_POLL);
    }
    let report = server.finish()?;
    let wall_ns = elapsed_ns(t0);
    if let Some(bus) = &bus {
        drain(bus);
    }
    let digests = ids
        .iter()
        .map(|id| {
            report
                .trials
                .iter()
                .find(|t| t.id == *id)
                .and_then(|t| match t.outcome {
                    TrialOutcome::Completed { digest, .. } => Some(digest),
                    _ => None,
                })
        })
        .collect();
    let dir_bytes = if measure { dir_size(root)? } else { 0 };
    std::fs::remove_dir_all(root)?;
    let m = &report.metrics;
    Ok(BatchRun {
        setup_ns,
        wall_ns,
        digests,
        retries: m.counter(Counter::TrialRetries),
        stalls: m.counter(Counter::WatchdogStalls),
        lost: m.counter(Counter::TrialsLost),
        sheds: m.counter(Counter::AdmissionSheds),
        stream_snapshots,
        feed_bytes,
        shed: bus.map_or(0, |b| b.shed()),
        dir_bytes,
    })
}

fn dir_size(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_size(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}
