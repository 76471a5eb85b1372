//! Checkpoint/restore conformance: the bit-identical-resume contract.
//!
//! The hard guarantee under test: a run driven `0 → T` produces the same
//! golden event-stream digest as a run driven `0 → k`, snapshotted to
//! bytes, restored into a **fresh** simulator (only the serialized bytes
//! survive the "process boundary") and driven `k → T`. Proven here for
//! all five routing protocols, for a churn-faulted scenario, and for
//! randomized (protocol, seed, capture point, fault) combinations; plus
//! typed-error behaviour on every malformed section, divergence
//! localization via [`bisect_divergence`], and a committed golden
//! snapshot fixture guarding the on-disk format against regressions.
//!
//! Regenerate fixtures with `UPDATE_GOLDEN=1 cargo test -p cavenet-testkit`.

use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use cavenet_core::checkpoint::{section, Snapshot, SnapshotError};
use cavenet_core::mobility::{MobilityTrace, NodeTrajectory};
use cavenet_core::net::{EventKind, SimObserver, SimTime};
use cavenet_core::{
    churn_plan, scenario_identity, CheckpointError, Engine, Experiment, Fidelity, MobilitySource,
    Protocol, Scenario,
};
use cavenet_rng::fnv::fnv64;
use cavenet_testkit::{
    assert_identity_semantics, bisect_divergence, check_golden, digest_scenario, GoldenDigest,
};

use proptest::prelude::*;

const PROTOCOLS: [Protocol; 5] = [
    Protocol::Aodv,
    Protocol::Dymo,
    Protocol::Olsr,
    Protocol::Dsdv,
    Protocol::Flooding,
];

fn short_scenario(protocol: Protocol, seed: u64) -> Scenario {
    let mut s = Scenario::paper_table1(protocol);
    s.sim_time = Duration::from_secs(16);
    s.traffic.cbr.start = Duration::from_secs(2);
    s.traffic.cbr.stop = Duration::from_secs(14);
    s.traffic.senders = vec![1, 2, 3];
    s.seed = seed;
    s
}

/// Run `0 → at`, snapshot, keep only the bytes, restore into a fresh
/// simulator and run `at → T`. Returns the finalized `(digest, events)`.
fn resumed_digest(s: &Scenario, at: Duration) -> (u64, u64) {
    let exp = Experiment::new(s.clone());
    let (mut sim, recorder) = exp.build_sim(GoldenDigest::new()).unwrap();
    sim.run_until(SimTime::from_secs_f64(at.as_secs_f64()));
    let bytes = exp.snapshot_now(&sim, &recorder).unwrap().to_bytes();
    drop((sim, recorder)); // nothing but `bytes` crosses the "process boundary"

    let snap = Snapshot::from_bytes(&bytes).unwrap();
    let (mut sim, _recorder, meta) = exp
        .resume_from_snapshot(GoldenDigest::new(), &snap)
        .unwrap();
    assert_eq!(
        meta.time_ns,
        SimTime::from_secs_f64(at.as_secs_f64()).as_nanos()
    );
    sim.run_until(SimTime::from_secs_f64(s.sim_time.as_secs_f64()));
    sim.observer().finalize(&sim)
}

#[test]
fn resume_is_bit_identical_for_every_protocol() {
    for protocol in PROTOCOLS {
        let s = short_scenario(protocol, 11);
        let straight = digest_scenario(&s);
        let (digest, events) = resumed_digest(&s, Duration::from_secs(7));
        assert_eq!(
            (digest, events),
            (straight.digest, straight.events),
            "{protocol:?}: resumed run diverged from straight run"
        );
        assert!(straight.events > 0, "{protocol:?}: vacuous scenario");
    }
}

#[test]
fn resume_is_bit_identical_mid_churn() {
    // Capture lands at 7 s, between the plan's first crash (~4.8 s) and
    // its recovery (~8.8 s): a node is down, routes are broken, and the
    // fault RNG stream is mid-flight.
    let mut s = short_scenario(Protocol::Aodv, 23);
    s.fault_plan = churn_plan(&s);
    let straight = digest_scenario(&s);
    let (digest, events) = resumed_digest(&s, Duration::from_secs(7));
    assert_eq!((digest, events), (straight.digest, straight.events));
}

/// A 120-node ring at the paper's vehicle density, flooded by 8 senders
/// at 20 packets/s from 2 s to 4 s: the shape of the allocation suite's
/// `flood_ring(4)`.
fn flooded_ring_120() -> Scenario {
    let mut s = Scenario::paper_table1(Protocol::Flooding);
    s.nodes = 120;
    s.circuit_m = 12_000.0;
    s.sim_time = Duration::from_secs(6);
    s.traffic.cbr.start = Duration::from_secs(2);
    s.traffic.cbr.stop = Duration::from_secs(4);
    s.traffic.cbr.rate_pps = 20.0;
    s.traffic.senders = (1u32..=8).map(|k| k * 120 / 9).collect();
    s.traffic.receiver = 0;
    s
}

#[test]
fn resume_through_flat_memory_layout_is_bit_identical() {
    // Exercises the flat-memory engine's checkpoint path specifically:
    //
    // * The capture lands at 2.5 s, mid-CBR-burst on a broadcast-heavy
    //   protocol, so MAC interface queues hold frames whose `Arc<Packet>`
    //   handles are shared with in-flight channel transmissions, and the
    //   grid/scratch buffer pools are warm.
    // * Routing and application timers sit seconds in the future — far
    //   beyond the calendar queue's ~17 ms active window — so the snapshot
    //   serializes events straight out of the overflow heap.
    // * On the flooded ring, contention is heavy enough that many MACs
    //   are caught mid-backoff, so a backoff counter restored off by one
    //   shifts a transmission.
    //
    // Restore rebuilds plain owned state (fresh arenas, unshared packets,
    // cold pools); bit-identity proves none of that layout is observable.
    let cases = [
        ("Flooding", short_scenario(Protocol::Flooding, 47)),
        ("Aodv", short_scenario(Protocol::Aodv, 47)),
        ("flooded ring of 120", flooded_ring_120()),
    ];
    for (label, s) in cases {
        let straight = digest_scenario(&s);
        let (digest, events) = resumed_digest(&s, Duration::from_millis(2500));
        assert_eq!(
            (digest, events),
            (straight.digest, straight.events),
            "{label}: flat-memory resume diverged"
        );
    }
}

#[test]
fn double_resume_is_still_bit_identical() {
    // Checkpoint chains must compose: 0→5 snapshot, 5→10 snapshot, 10→T.
    let s = short_scenario(Protocol::Dymo, 31);
    let straight = digest_scenario(&s);
    let exp = Experiment::new(s.clone());
    let end = SimTime::from_secs_f64(s.sim_time.as_secs_f64());

    let (mut sim, rec) = exp.build_sim(GoldenDigest::new()).unwrap();
    sim.run_until(SimTime::from_secs(5));
    let bytes1 = exp.snapshot_now(&sim, &rec).unwrap().to_bytes();
    drop((sim, rec));

    let snap1 = Snapshot::from_bytes(&bytes1).unwrap();
    let (mut sim, rec, _) = exp
        .resume_from_snapshot(GoldenDigest::new(), &snap1)
        .unwrap();
    sim.run_until(SimTime::from_secs(10));
    let bytes2 = exp.snapshot_now(&sim, &rec).unwrap().to_bytes();
    drop((sim, rec));

    let snap2 = Snapshot::from_bytes(&bytes2).unwrap();
    let (mut sim, _rec, meta) = exp
        .resume_from_snapshot(GoldenDigest::new(), &snap2)
        .unwrap();
    assert_eq!(meta.time_ns, SimTime::from_secs(10).as_nanos());
    sim.run_until(end);
    assert_eq!(
        sim.observer().finalize(&sim),
        (straight.digest, straight.events)
    );
}

#[test]
fn snapshot_under_n_shards_resumes_under_m() {
    // `shards` is an execution knob, not a behaviour knob, and is
    // normalized out of the snapshot's scenario identity: a checkpoint
    // captured by a 3-shard run must restore into 2-shard, 5-shard and
    // serial simulators — and every resumed tail must equal the straight
    // serial run bitwise.
    let s = short_scenario(Protocol::Aodv, 11);
    let straight = digest_scenario(&s);

    let mut capture = s.clone();
    capture.shards = 3;
    let exp = Experiment::new(capture);
    let (mut sim, rec) = exp.build_sim(GoldenDigest::new()).unwrap();
    sim.run_until(SimTime::from_secs(7));
    let bytes = exp.snapshot_now(&sim, &rec).unwrap().to_bytes();
    drop((sim, rec));

    for resume_shards in [1usize, 2, 5] {
        let mut r = s.clone();
        r.shards = resume_shards;
        let snap = Snapshot::from_bytes(&bytes).unwrap();
        let (mut sim, _rec, meta) = Experiment::new(r)
            .resume_from_snapshot(GoldenDigest::new(), &snap)
            .unwrap_or_else(|e| panic!("3-shard snapshot must restore under {resume_shards}: {e}"));
        assert_eq!(meta.time_ns, SimTime::from_secs(7).as_nanos());
        sim.run_until(SimTime::from_secs_f64(s.sim_time.as_secs_f64()));
        assert_eq!(
            sim.observer().finalize(&sim),
            (straight.digest, straight.events),
            "resume under {resume_shards} shards diverged from the serial run"
        );
    }
}

#[test]
fn identity_keeps_fidelity_but_normalizes_shards() {
    // The two knob classes of DESIGN.md §17: `fidelity` selects a backend
    // with different results (identity-relevant — exact and fluid
    // snapshots must never cross-resume), while `shards` is pure execution
    // layout (identity-neutral — N-shard snapshots resume under M).
    assert_identity_semantics(&short_scenario(Protocol::Aodv, 11), &[1, 2, 4, 7]);
}

#[test]
fn a_trace_scenario_identity_fingerprints_its_samples() {
    // A trace-driven scenario's identity hashes the trace's sample
    // fingerprint, not a rendering of every sample: the same samples give
    // the same identity however the trace was built, and one ULP in one
    // sample moves it.
    let table1 = short_scenario(Protocol::Aodv, 5);
    let with = |trace: MobilityTrace| {
        let mut s = table1.clone();
        s.mobility = MobilitySource::Trace(trace);
        s
    };
    let generated = table1.build_trace().unwrap();
    let mut nodes: Vec<NodeTrajectory> = generated.iter().map(|(_, tr)| tr).collect();
    let identity = scenario_identity(&with(generated.clone()));
    let rebuilt = MobilityTrace::from_trajectories(nodes.clone());
    assert_eq!(scenario_identity(&with(rebuilt)), identity);
    let mut samples = nodes[3].samples().to_vec();
    let x = &mut samples[11].position.x;
    *x = f64::from_bits(x.to_bits() + 1);
    nodes[3] = NodeTrajectory::new(samples).unwrap();
    let nudged = scenario_identity(&with(MobilityTrace::from_trajectories(nodes)));
    assert_ne!(nudged.scenario_hash, identity.scenario_hash);
    let rendered = format!("{:?}", MobilitySource::Trace(generated));
    assert!(rendered.len() < 256, "{rendered}");
}

fn fluid_scenario(protocol: Protocol, seed: u64) -> Scenario {
    let mut s = short_scenario(protocol, seed);
    s.fidelity = Fidelity::Fluid;
    s
}

/// Run the fluid engine `0 → at`, snapshot, keep only the bytes, restore
/// into a fresh engine and run `at → end`. Returns `(digest, steps)`.
fn fluid_resumed_digest(s: &Scenario, at: Duration) -> (u64, u64) {
    let exp = Experiment::new(s.clone());
    let mut engine = exp.build_fluid().unwrap();
    engine.run_until_ns(at.as_nanos() as u64);
    let bytes = engine.capture_snapshot(&exp).unwrap().to_bytes();
    drop(engine); // nothing but `bytes` crosses the "process boundary"

    let snap = Snapshot::from_bytes(&bytes).unwrap();
    let mut engine = exp.build_fluid().unwrap();
    let meta = engine.restore_snapshot(&exp, &snap).unwrap();
    assert_eq!(meta.time_ns, at.as_nanos() as u64);
    engine.run_to_end();
    (engine.digest(), engine.steps_done())
}

#[test]
fn fluid_resume_is_bit_identical_for_every_protocol() {
    // The resume contract holds per backend: a fluid run snapshotted at
    // 7 s and restored from bytes finishes with the same engine digest as
    // the uninterrupted fluid run.
    for protocol in PROTOCOLS {
        let s = fluid_scenario(protocol, 11);
        let (_, straight) = Experiment::new(s.clone()).run_fluid().unwrap();
        let (digest, steps) = fluid_resumed_digest(&s, Duration::from_secs(7));
        assert_eq!(
            (digest, steps),
            (straight.digest(), straight.steps_done()),
            "{protocol:?}: resumed fluid run diverged from straight run"
        );
        assert!(straight.steps_done() > 0, "{protocol:?}: vacuous scenario");
    }
}

#[test]
fn fluid_snapshot_under_n_shards_resumes_under_m() {
    // The shard axis of `snapshot_under_n_shards_resumes_under_m`, under
    // the fluid backend: `integrate(shards)` is bit-invariant in shard
    // count and shards are normalized out of the snapshot identity, so a
    // 3-shard fluid checkpoint restores into 2-shard, 5-shard and serial
    // engines with identical final digests.
    let s = fluid_scenario(Protocol::Aodv, 11);
    let (_, straight) = Experiment::new(s.clone()).run_fluid().unwrap();

    let mut capture = s.clone();
    capture.shards = 3;
    let exp = Experiment::new(capture);
    let mut engine = exp.build_fluid().unwrap();
    engine.run_until_ns(Duration::from_secs(7).as_nanos() as u64);
    let bytes = engine.capture_snapshot(&exp).unwrap().to_bytes();
    drop(engine);

    for resume_shards in [1usize, 2, 5] {
        let mut r = s.clone();
        r.shards = resume_shards;
        let snap = Snapshot::from_bytes(&bytes).unwrap();
        let rexp = Experiment::new(r);
        let mut engine = rexp.build_fluid().unwrap();
        let meta = engine.restore_snapshot(&rexp, &snap).unwrap_or_else(|e| {
            panic!("3-shard fluid snapshot must restore under {resume_shards}: {e}")
        });
        assert_eq!(meta.time_ns, Duration::from_secs(7).as_nanos() as u64);
        engine.run_to_end();
        assert_eq!(
            (engine.digest(), engine.steps_done()),
            (straight.digest(), straight.steps_done()),
            "fluid resume under {resume_shards} shards diverged from the serial run"
        );
    }
}

#[test]
fn snapshots_refuse_to_cross_the_fidelity_boundary() {
    // Fidelity is identity-relevant, so a snapshot captured under one
    // backend must be refused by the other — in both directions, as a
    // typed error, never as a silent wrong-backend resume.
    let exact = short_scenario(Protocol::Aodv, 11);
    let fluid = fluid_scenario(Protocol::Aodv, 11);

    let exp = Experiment::new(exact.clone());
    let (mut sim, rec) = exp.build_sim(GoldenDigest::new()).unwrap();
    sim.run_until(SimTime::from_secs(7));
    let exact_bytes = exp.snapshot_now(&sim, &rec).unwrap().to_bytes();
    drop((sim, rec));

    let fexp = Experiment::new(fluid.clone());
    let mut engine = fexp.build_fluid().unwrap();
    engine.run_until_ns(Duration::from_secs(7).as_nanos() as u64);
    let fluid_bytes = engine.capture_snapshot(&fexp).unwrap().to_bytes();
    drop(engine);

    let exact_snap = Snapshot::from_bytes(&exact_bytes).unwrap();
    let err = fexp
        .build_fluid()
        .unwrap()
        .restore_snapshot(&fexp, &exact_snap)
        .unwrap_err();
    assert!(
        matches!(err, SnapshotError::MetaMismatch { .. }),
        "fluid engine accepted an exact snapshot: {err:?}"
    );

    let fluid_snap = Snapshot::from_bytes(&fluid_bytes).unwrap();
    let err = exp
        .resume_from_snapshot(GoldenDigest::new(), &fluid_snap)
        .unwrap_err();
    assert!(
        matches!(err, CheckpointError::Snapshot(_)),
        "exact engine accepted a fluid snapshot: {err:?}"
    );
}

#[test]
fn every_truncated_section_fails_with_a_typed_error() {
    let s = short_scenario(Protocol::Aodv, 11);
    let exp = Experiment::new(s.clone());
    let (mut sim, rec) = exp.build_sim(GoldenDigest::new()).unwrap();
    sim.run_until(SimTime::from_secs(7));
    let snap = exp.snapshot_now(&sim, &rec).unwrap();

    for (victim, len) in snap.section_sizes() {
        for keep in [0, len / 2] {
            if keep >= len {
                continue; // empty/degenerate cut: nothing to malform
            }
            let mut mutilated = Snapshot::new();
            for (id, _) in snap.section_sizes() {
                let mut body = snap.get(id).unwrap().to_vec();
                if id == victim {
                    body.truncate(keep);
                }
                mutilated.insert(id, body).unwrap();
            }
            // The container itself re-hashes cleanly; the damage must be
            // caught at restore time, as a typed error naming the section.
            let reparsed = Snapshot::from_bytes(&mutilated.to_bytes()).unwrap();
            let err = exp
                .resume_from_snapshot(GoldenDigest::new(), &reparsed)
                .unwrap_err();
            match err {
                CheckpointError::Snapshot(SnapshotError::Wire { id, .. }) => assert_eq!(
                    id,
                    victim,
                    "truncation of {} blamed on wrong section",
                    cavenet_core::checkpoint::section_name(victim)
                ),
                CheckpointError::Snapshot(SnapshotError::MetaMismatch { .. })
                    if victim == section::META || victim == section::MOBILITY => {}
                other => panic!(
                    "truncating section {} to {keep} bytes: expected a typed \
                     snapshot error, got {other:?}",
                    cavenet_core::checkpoint::section_name(victim)
                ),
            }
        }
    }
}

#[test]
fn bisect_localizes_an_injected_divergence_exactly() {
    // Two runs identical until one stops its CBR sources earlier: the
    // prefix digests agree tick by tick, then split. Linear scan gives the
    // ground-truth first diverging tick; bisection must find the same
    // tick in O(log n) probes.
    let tick = Duration::from_millis(250);
    let ticks = 56u64; // 14 s horizon
    let a = short_scenario(Protocol::Aodv, 13);
    let mut b = a.clone();
    b.traffic.cbr.stop = Duration::from_secs(9); // a stops at 14 s

    let prefix = |s: &Scenario| -> Vec<u64> {
        let (mut sim, _rec) = Experiment::new(s.clone())
            .build_sim(GoldenDigest::new())
            .unwrap();
        (1..=ticks)
            .map(|k| {
                sim.run_until(SimTime::from_nanos(tick.as_nanos() as u64 * k));
                sim.observer().value()
            })
            .collect()
    };
    let da = prefix(&a);
    let db = prefix(&b);

    let truth = (0..ticks as usize)
        .position(|i| da[i] != db[i])
        .map(|i| i as u64 + 1)
        .expect("scenarios must diverge");
    assert!(truth > 1, "divergence must not be at the very first tick");

    let mut probes = 0u64;
    let found = bisect_divergence(0, ticks, |k| {
        probes += 1;
        k > 0 && da[k as usize - 1] != db[k as usize - 1]
    });
    assert_eq!(
        found,
        Some(truth),
        "bisection missed the first diverging tick"
    );
    assert!(
        probes <= 9,
        "expected ≈log2({ticks})+2 probes, got {probes}"
    );
    // The injected cause: tick `truth` is the first after the early CBR
    // stop could bite — it cannot precede the 9 s stop time.
    assert!(truth as u128 * tick.as_nanos() >= Duration::from_secs(9).as_nanos());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized resume conformance: any protocol, seed, capture point
    /// and fault plan — restore-then-run equals the uninterrupted run.
    #[test]
    fn random_resume_is_bit_identical(
        proto in 0usize..5,
        seed in any::<u64>(),
        tenths in 1u64..9,
        faulted in any::<bool>(),
    ) {
        let mut s = short_scenario(PROTOCOLS[proto], seed);
        s.sim_time = Duration::from_secs(12);
        s.traffic.cbr.stop = Duration::from_secs(10);
        if faulted {
            s.fault_plan = churn_plan(&s);
        }
        let at = Duration::from_millis(1200 * tenths);
        let straight = digest_scenario(&s);
        let (digest, events) = resumed_digest(&s, at);
        prop_assert_eq!(digest, straight.digest);
        prop_assert_eq!(events, straight.events);
    }
}

// ---------------------------------------------------------------------------
// Backward compatibility: a committed binary fixture of the v1 format must
// keep restoring (and resuming bit-identically) on current code.
// ---------------------------------------------------------------------------

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/checkpoint_v1.snapshot")
}

fn fixture_scenario() -> Scenario {
    short_scenario(Protocol::Dsdv, 2024)
}

#[test]
fn golden_snapshot_fixture_still_restores() {
    let s = fixture_scenario();
    let exp = Experiment::new(s.clone());
    let path = fixture_path();

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let (mut sim, rec) = exp.build_sim(GoldenDigest::new()).unwrap();
        sim.run_until(SimTime::from_secs(6));
        let snap = exp.snapshot_now(&sim, &rec).unwrap();
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, snap.to_bytes()).unwrap();
        eprintln!("golden snapshot fixture rewritten: {}", path.display());
    }

    let bytes = fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot fixture {} ({e});\n  regenerate with: \
             UPDATE_GOLDEN=1 cargo test -p cavenet-testkit",
            path.display()
        )
    });
    let snap = Snapshot::from_bytes(&bytes).expect("v1 fixture must still parse");
    let meta = snap.meta().unwrap();
    assert_eq!(meta.time_ns, SimTime::from_secs(6).as_nanos());

    let (mut sim, _rec, _) = exp
        .resume_from_snapshot(GoldenDigest::new(), &snap)
        .expect("v1 fixture must still restore");
    sim.run_until(SimTime::from_secs_f64(s.sim_time.as_secs_f64()));
    let (digest, events) = sim.observer().finalize(&sim);

    // The resumed tail must equal today's straight run *and* the digest
    // committed alongside the fixture.
    let straight = digest_scenario(&s);
    assert_eq!((digest, events), (straight.digest, straight.events));
    check_golden("checkpoint_v1_resume", digest, events);
}

/// The ROUTING section of each protocol's 6 s snapshot of the fixture
/// scenario, pinned by its FNV-1a hash and length. The v1 fixture holds
/// DSDV's state only; these pin every protocol's checkpoint wire format.
#[test]
fn golden_routing_sections() {
    for protocol in PROTOCOLS {
        let exp = Experiment::new(short_scenario(protocol, 2024));
        let (mut sim, rec) = exp.build_sim(GoldenDigest::new()).unwrap();
        sim.run_until(SimTime::from_secs(6));
        let snap = exp.snapshot_now(&sim, &rec).unwrap();
        let routing = snap.get(section::ROUTING).expect("routing section");
        let name = format!("routing_section_{}", protocol.to_string().to_lowercase());
        check_golden(&name, fnv64(routing), routing.len() as u64);
    }
}

/// Finds the receptions of one transmission: the first `RxStart`
/// scheduled at or after `after` opens the batch, which holds every
/// `RxStart` and `RxEnd` the sender's transmission scheduled before its
/// `TxEnd`. Counts how many of each pass have been dispatched.
struct RxWindows {
    after: SimTime,
    state: Batch,
    starts: Vec<(SimTime, u64)>,
    ends: Vec<(SimTime, u64)>,
    started: usize,
    ended: usize,
}

#[derive(PartialEq)]
enum Batch {
    Waiting,
    Open,
    Closed,
}

impl RxWindows {
    fn new(after: SimTime) -> Self {
        RxWindows {
            after,
            state: Batch::Waiting,
            starts: Vec::new(),
            ends: Vec::new(),
            started: 0,
            ended: 0,
        }
    }

    /// The time of the middle entry of a pass, in time order.
    fn middle(pass: &[(SimTime, u64)]) -> SimTime {
        let mut times: Vec<SimTime> = pass.iter().map(|&(t, _)| t).collect();
        times.sort_unstable();
        times[times.len() / 2]
    }
}

impl SimObserver for RxWindows {
    fn on_event_scheduled(&mut self, at: SimTime, seq: u64, _node: usize, kind: EventKind) {
        match (&self.state, kind) {
            (Batch::Waiting, EventKind::RxStart) if at >= self.after => {
                self.state = Batch::Open;
                self.starts.push((at, seq));
            }
            (Batch::Open, EventKind::RxStart) => self.starts.push((at, seq)),
            (Batch::Open, EventKind::RxEnd) => self.ends.push((at, seq)),
            (Batch::Open, _) => self.state = Batch::Closed,
            _ => {}
        }
    }

    fn on_event_dispatched(&mut self, _now: SimTime, seq: u64, _node: usize, kind: EventKind) {
        // The batch holds consecutive sequence numbers.
        let (Some(&(_, first)), Some(&(_, last))) = (self.starts.first(), self.ends.last()) else {
            return;
        };
        if (first..=last).contains(&seq) {
            match kind {
                EventKind::RxStart => self.started += 1,
                EventKind::RxEnd => self.ended += 1,
                _ => {}
            }
        }
    }
}

/// The ENGINE, CHANNEL and LINK sections of snapshots taken in the middle
/// of one transmission's receptions, pinned by FNV-1a hash and length:
/// once inside its RxStart window (some starts dispatched, the rest
/// pending) and once inside its RxEnd window. They pin the capture order
/// of a transmission's pending receptions among the other queued events,
/// the event wire format, and the per-node MAC and radio state.
#[test]
fn golden_engine_sections() {
    let table1 = Scenario::paper_table1(Protocol::Flooding);
    let table1_after = table1.traffic.cbr.start + Duration::from_millis(500);
    let jam = cavenet_testkit::jam_ring_scenario(600);
    let jam_after = jam.traffic.cbr.start + Duration::from_micros(500);
    for (label, s, after) in [("table1", table1, table1_after), ("jam", jam, jam_after)] {
        let exp = Experiment::new(s);
        let after = SimTime::from_secs_f64(after.as_secs_f64());
        let (mut sim, _) = exp.build_sim(RxWindows::new(after)).unwrap();
        sim.run_until(after + Duration::from_millis(20));
        let probe = sim.observer();
        assert!(
            probe.state == Batch::Closed,
            "{label}: no transmission found"
        );
        assert_eq!(probe.starts.len(), probe.ends.len());
        let windows = [
            ("rx_start", RxWindows::middle(&probe.starts)),
            ("rx_end", RxWindows::middle(&probe.ends)),
        ];

        let (mut sim, rec) = exp.build_sim(RxWindows::new(after)).unwrap();
        for (window, at) in windows {
            sim.run_until(at);
            let probe = sim.observer();
            let n = probe.starts.len();
            let (done, of_pass) = match window {
                "rx_start" => (probe.started, probe.ended),
                _ => (probe.ended, n - probe.started),
            };
            assert!(
                0 < done && done < n && of_pass == 0,
                "{label} {window}: {done} of {n} dispatched"
            );
            let snap = exp.snapshot_now(&sim, &rec).unwrap();
            for (name, id) in [
                ("engine", section::ENGINE),
                ("channel", section::CHANNEL),
                ("link", section::LINK),
            ] {
                let bytes = snap.get(id).expect("section");
                let golden = format!("sections_{label}_{window}_{name}");
                check_golden(&golden, fnv64(bytes), bytes.len() as u64);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Hostile-input hardening: no byte-level corruption of a snapshot may ever
// panic the restore path — every failure must surface as a typed error.
// ---------------------------------------------------------------------------

/// Fuzz-style corruption sweep over the committed v1 fixture: flip,
/// truncate and extend random bytes under a seeded RNG and feed every
/// mutant through parse *and* restore. The accepted outcomes are a clean
/// parse (the corruption landed somewhere harmless), a typed
/// [`SnapshotError`]/[`CheckpointError`] — never an unwind.
#[test]
fn corrupted_snapshot_bytes_never_panic() {
    use cavenet_rng::SimRng;

    let pristine = fs::read(fixture_path()).expect("golden snapshot fixture present");
    let exp = Experiment::new(fixture_scenario());
    let mut rng = SimRng::seed_from_u64(0xC0FFEE);

    for round in 0..400u32 {
        let mut bytes = pristine.clone();
        match round % 4 {
            // Flip 1..=8 bytes anywhere (header, section table, payload).
            0 | 1 => {
                let flips = 1 + (rng.next_u64() % 8) as usize;
                for _ in 0..flips {
                    let at = (rng.next_u64() % bytes.len() as u64) as usize;
                    bytes[at] ^= (rng.next_u64() % 255 + 1) as u8;
                }
            }
            // Truncate to a random prefix (including the empty one).
            2 => {
                let keep = (rng.next_u64() % (bytes.len() as u64 + 1)) as usize;
                bytes.truncate(keep);
            }
            // Append random trailing garbage.
            _ => {
                let extra = 1 + (rng.next_u64() % 64) as usize;
                for _ in 0..extra {
                    bytes.push(rng.next_u64() as u8);
                }
            }
        }

        let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            match Snapshot::from_bytes(&bytes) {
                Err(_) => {} // typed SnapshotError: exactly what we want
                Ok(snap) => {
                    // Container survived (hash collision is effectively
                    // impossible, so this is usually the harmless-byte
                    // case) — the restore path must stay panic-free too.
                    match exp.resume_from_snapshot(GoldenDigest::new(), &snap) {
                        Ok(_) | Err(CheckpointError::Snapshot(_)) => {}
                        Err(other) => panic!("unexpected error class: {other}"),
                    }
                }
            }
        }));
        assert!(
            verdict.is_ok(),
            "corruption round {round} panicked instead of returning a typed error"
        );
    }
}

/// Corruption that reaches the section decoders. The container hash
/// rejects nearly every mutant of a sealed file, so this sweep mutates one
/// section's payload of each protocol's 7 s snapshot and re-seals it with
/// [`Snapshot::insert`] into a fresh container: byte flips, a truncation,
/// and a count-like 8-byte field (a little-endian value in 1..=4096)
/// replaced by a huge count or nudged by one. Every mutant must restore
/// cleanly or fail with a typed error; a panic fails the test, and an
/// allocation sized from a corrupt count would abort the process.
#[test]
fn resealed_section_corruption_fails_with_typed_errors() {
    use cavenet_rng::SimRng;

    const ROUNDS: u64 = 32;
    let mut rng = SimRng::seed_from_u64(0x5EA1);
    for protocol in PROTOCOLS {
        let exp = Experiment::new(short_scenario(protocol, 11));
        let (mut sim, rec) = exp.build_sim(GoldenDigest::new()).unwrap();
        sim.run_until(SimTime::from_secs(7));
        let snap = exp.snapshot_now(&sim, &rec).unwrap();
        for (victim, len) in snap.section_sizes() {
            let pristine = snap.get(victim).unwrap();
            let counts: Vec<usize> = (0..len.saturating_sub(7))
                .filter(|&at| {
                    let v = u64::from_le_bytes(pristine[at..at + 8].try_into().unwrap());
                    (1..=4096).contains(&v)
                })
                .collect();
            for round in 0..ROUNDS {
                let mut body = pristine.to_vec();
                let mut pick = |n: usize| (rng.next_u64() % n as u64) as usize;
                match round % 4 {
                    0 if len > 0 => {
                        for _ in 0..1 + pick(4) {
                            let at = pick(len);
                            body[at] ^= 1 + pick(255) as u8;
                        }
                    }
                    1 => body.truncate(pick(len + 1)),
                    2 | 3 if !counts.is_empty() => {
                        let at = counts[pick(counts.len())];
                        let old = u64::from_le_bytes(body[at..at + 8].try_into().unwrap());
                        let new = if round % 4 == 2 {
                            [1 << 40, 1 << 61, u64::MAX][pick(3)]
                        } else {
                            old + 1
                        };
                        body[at..at + 8].copy_from_slice(&new.to_le_bytes());
                    }
                    _ => continue,
                }
                let mut mutant = Snapshot::new();
                for (id, _) in snap.section_sizes() {
                    let payload = if id == victim {
                        body.clone()
                    } else {
                        snap.get(id).unwrap().to_vec()
                    };
                    mutant.insert(id, payload).unwrap();
                }
                let resealed = Snapshot::from_bytes(&mutant.to_bytes()).unwrap();
                let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match exp
                    .resume_from_snapshot(GoldenDigest::new(), &resealed)
                {
                    Ok(_) | Err(CheckpointError::Snapshot(_)) => {}
                    Err(other) => panic!("unexpected error class: {other}"),
                }));
                assert!(
                    verdict.is_ok(),
                    "{protocol:?}: round {round} on section {} panicked instead of \
                     returning a typed error",
                    cavenet_core::checkpoint::section_name(victim)
                );
            }
        }
    }
}
