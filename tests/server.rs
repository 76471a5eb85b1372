//! Supervised campaign service: chaos, recovery and determinism.
//!
//! The contract under test: supervision is *invisible* in the results.
//! Whatever the server had to do to get a trial over the line — catch a
//! panic, cancel a stall, retry from a checkpoint, survive a shutdown —
//! the surviving trial's golden event-stream digest is bit-identical to
//! an unsupervised straight run of the same scenario, and only genuinely
//! poisonous trials are quarantined.

use std::path::PathBuf;
use std::time::Duration;

use cavenet_core::checkpoint::store;
use cavenet_core::{digest_scenario, Experiment, Protocol, Scenario};
use cavenet_net::{GoldenDigest, SimTime};
use cavenet_server::{
    AdmissionError, BackoffPolicy, CampaignLedger, CampaignServer, ChaosEntry, ChaosKind,
    ChaosPlan, ServerConfig, TrialKey, TrialOutcome, TrialState,
};
use cavenet_telemetry::{
    render_prometheus, CampaignAggregator, Counter, Gauge, HistogramId, SnapshotBus,
    SnapshotEnvelope,
};
use proptest::prelude::*;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cavenet_chaos_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The conformance suite's tiny-but-real scenario: 12 s of virtual time,
/// CBR from two senders, paper-sized node count.
fn tiny_scenario(seed: u64) -> Scenario {
    let mut s = Scenario::paper_table1(Protocol::Aodv);
    s.sim_time = Duration::from_secs(12);
    s.traffic.cbr.start = Duration::from_secs(2);
    s.traffic.cbr.stop = Duration::from_secs(10);
    s.traffic.senders = vec![1, 2];
    s.seed = seed;
    s
}

fn quick_config(dir: PathBuf) -> ServerConfig {
    let mut config = ServerConfig::new(dir);
    config.workers = 2;
    config.checkpoint_every = Duration::from_secs(4);
    config.backoff = BackoffPolicy {
        base: Duration::from_millis(2),
        cap: Duration::from_millis(20),
        jitter: 0.5,
    };
    config.poll = Duration::from_millis(5);
    config.stall_timeout = Duration::from_millis(150);
    config.snapshot_stride = 64;
    config.seed = 0xCA7;
    config
}

/// The flagship chaos campaign: injected panic, injected stall, one
/// poison trial and clean trials, all supervised together. Only the
/// poison is quarantined; every survivor's digest is bit-identical to an
/// uninjected straight run.
#[test]
fn chaos_campaign_recovers_everything_but_poison() {
    let dir = scratch("campaign");
    let mut config = quick_config(dir.clone());
    const PANIC_SEED: u64 = 11;
    const STALL_SEED: u64 = 12;
    const POISON_SEED: u64 = 13;
    config.chaos = ChaosPlan {
        entries: vec![
            ChaosEntry {
                seed: PANIC_SEED,
                at: SimTime::from_secs(6),
                kind: ChaosKind::Panic,
                attempts: 1,
            },
            ChaosEntry {
                seed: STALL_SEED,
                at: SimTime::from_secs(6),
                kind: ChaosKind::Stall {
                    max_wall: Duration::from_secs(20),
                },
                attempts: 1,
            },
            ChaosEntry {
                seed: POISON_SEED,
                at: SimTime::from_secs(3),
                kind: ChaosKind::Panic,
                attempts: u64::MAX,
            },
        ],
    };
    let seeds = [PANIC_SEED, STALL_SEED, POISON_SEED, 14, 15];

    let server = CampaignServer::start(config).unwrap();
    for seed in seeds {
        server.submit(tiny_scenario(seed)).unwrap();
    }
    let report = server.finish().unwrap();

    assert_eq!(report.trials.len(), seeds.len());
    assert_eq!(report.quarantined(), 1, "exactly the poison trial");
    assert_eq!(report.completed(), seeds.len() - 1);

    let poison_key = TrialKey::of(&tiny_scenario(POISON_SEED));
    for trial in &report.trials {
        match &trial.outcome {
            TrialOutcome::Quarantined => {
                assert_eq!(trial.key, poison_key, "only poison may be quarantined");
                assert_eq!(trial.attempts.len(), 3, "full failure history kept");
                assert!(trial
                    .attempts
                    .iter()
                    .all(|a| a.failure.kind() == "panicked"));
            }
            TrialOutcome::Completed {
                digest,
                events,
                lineage,
                replayed,
            } => {
                assert!(!replayed);
                // The supervision-invisibility contract: bit-identical to
                // an unsupervised straight run.
                let straight = digest_scenario(&tiny_scenario(trial.key.seed));
                assert_eq!(
                    (*digest, *events),
                    (straight.digest, straight.events),
                    "supervised digest diverged for seed {}",
                    trial.key.seed
                );
                if trial.key.seed == PANIC_SEED || trial.key.seed == STALL_SEED {
                    assert!(
                        !trial.attempts.is_empty(),
                        "sabotaged trial must have a failure history"
                    );
                    assert!(
                        !lineage.is_cold(),
                        "retry must resume from the checkpoint the dead attempt left"
                    );
                }
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    // The stall was detected by the watchdog, not misread as a panic.
    let stall_key = TrialKey::of(&tiny_scenario(STALL_SEED));
    let stalled = report.trials.iter().find(|t| t.key == stall_key).unwrap();
    assert!(
        stalled
            .attempts
            .iter()
            .any(|a| a.failure.kind() == "stalled"),
        "stall trial history: {:?}",
        stalled.attempts
    );

    // The ledger agrees with the report and is well-formed on disk.
    let text = std::fs::read_to_string(&report.ledger_path).unwrap();
    let ledger = cavenet_server::CampaignLedger::from_text(&text).unwrap();
    assert!(matches!(
        ledger.get(poison_key),
        Some(TrialState::Quarantined { failures }) if failures.len() == 3
    ));

    // The supervisor's live counters agree with the ledger-derived view:
    // what it counted as it happened is what the reports say afterwards.
    let m = &report.metrics;
    assert_eq!(m.counter(Counter::TrialsSubmitted), seeds.len() as u64);
    assert_eq!(m.counter(Counter::TrialsCompleted), seeds.len() as u64 - 1);
    assert_eq!(m.counter(Counter::TrialsQuarantined), 1);
    assert_eq!(m.counter(Counter::AdmissionSheds), 0);
    let total_attempts: u64 = report.trials.iter().map(|t| t.attempt_count()).sum();
    assert_eq!(
        m.counter(Counter::TrialRetries),
        total_attempts - seeds.len() as u64,
        "every attempt past the first came from exactly one retry decision"
    );
    assert_eq!(
        m.histogram(HistogramId::BackoffDelayNs).count(),
        m.counter(Counter::TrialRetries),
        "every retry parked through exactly one backoff delay"
    );
    assert!(
        m.counter(Counter::WatchdogStalls) + m.counter(Counter::TrialsLost) >= 1,
        "the stall trial must have tripped the watchdog"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A campaign with the snapshot bus configured streams registry
/// snapshots from every in-flight trial plus the supervisor — and stays
/// digest-invisible: every trial's golden digest equals its unobserved
/// straight run, while the aggregated feed accounts for every dispatched
/// event. The JSONL feed round-trips: parsed back and re-aggregated, it
/// equals the live merge, whose exposition carries the event total.
#[test]
fn streamed_campaign_is_digest_invisible_and_aggregates() {
    let dir = scratch("stream");
    let bus = SnapshotBus::new(1 << 14);
    let mut config = quick_config(dir.clone());
    config.bus = Some(bus.clone());
    config.snapshot_stride = 512;
    let seeds = [51u64, 52, 53];

    let server = CampaignServer::start(config).unwrap();
    for seed in seeds {
        server.submit(tiny_scenario(seed)).unwrap();
    }
    let report = server.finish().unwrap();
    assert_eq!(report.completed(), seeds.len());

    let mut total_events = 0u64;
    for trial in &report.trials {
        let TrialOutcome::Completed { digest, events, .. } = &trial.outcome else {
            panic!("clean trial must complete: {trial:?}");
        };
        let straight = digest_scenario(&tiny_scenario(trial.key.seed));
        assert_eq!(
            (*digest, *events),
            (straight.digest, straight.events),
            "streaming perturbed seed {}",
            trial.key.seed
        );
        total_events += events;
    }

    // Live side: every drained envelope goes to the aggregator and, as a
    // JSONL line, to the campaign feed.
    let mut aggregator = CampaignAggregator::new();
    let mut feed = Vec::new();
    for envelope in bus.drain() {
        feed.push(envelope.render_line());
        aggregator.ingest(envelope);
    }
    assert_eq!(bus.shed(), 0, "the bus was sized for the whole campaign");
    assert_eq!(
        aggregator.sources(),
        seeds.len() + 1,
        "one source per trial plus the supervisor"
    );
    assert!(aggregator.latest("supervisor").is_some());
    let merged = aggregator.merged();
    assert_eq!(
        merged.counter(Counter::EventsDispatched),
        total_events,
        "each trial's newest snapshot is its final flush"
    );
    assert_eq!(merged.counter(Counter::TrialsSubmitted), seeds.len() as u64);
    assert_eq!(merged.counter(Counter::TrialsCompleted), seeds.len() as u64);
    assert_eq!(
        report.metrics.counter(Counter::TrialsCompleted),
        seeds.len() as u64
    );

    // Feed side: parsing the JSONL feed back and re-aggregating it
    // reconstructs the live merge exactly.
    let mut replayed = CampaignAggregator::new();
    for line in &feed {
        let envelope = SnapshotEnvelope::parse_line(line)
            .unwrap_or_else(|e| panic!("feed line does not parse ({e}): {line}"));
        replayed.ingest(envelope);
    }
    assert_eq!(replayed.sources(), aggregator.sources());
    assert_eq!(replayed.merged(), merged, "the feed lost information");

    let exposition = render_prometheus(&merged, &[("campaign", "stream")]);
    assert!(
        exposition.contains(&format!(
            "cavenet_events_dispatched_total{{campaign=\"stream\"}} {total_events}\n"
        )),
        "exposition lacks the dispatched-event total:\n{exposition}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The live read side: while a trial is wedged mid-run, `status()` shows
/// its heartbeat (attempt, beats, virtual time) and the supervisor's
/// gauges agree.
#[test]
fn status_exposes_live_heartbeats_and_gauges() {
    let dir = scratch("status");
    let mut config = quick_config(dir.clone());
    config.workers = 1;
    config.stall_timeout = Duration::from_secs(60); // watchdog stays out
    config.chaos = ChaosPlan {
        entries: vec![ChaosEntry {
            seed: 61,
            at: SimTime::from_secs(6),
            kind: ChaosKind::Stall {
                max_wall: Duration::from_secs(30),
            },
            attempts: u64::MAX,
        }],
    };
    let server = CampaignServer::start(config).unwrap();
    server.submit(tiny_scenario(61)).unwrap();
    // Let the worker claim the trial and run it to its 6 s stall point.
    std::thread::sleep(Duration::from_millis(300));

    let status = server.status();
    assert_eq!(status.queued, 0);
    assert_eq!(status.running.len(), 1, "the wedged trial is in flight");
    let progress = &status.running[0];
    assert_eq!(progress.seed, 61);
    assert_eq!(progress.attempt, 1);
    assert!(
        progress.beats > 0,
        "heartbeats accumulated before the stall"
    );
    assert!(
        progress.sim_time > SimTime::ZERO,
        "the heartbeat carries virtual time"
    );
    assert_eq!(status.metrics.gauge(Gauge::RunningTrials), 1);
    assert!(status.workers_alive >= 1);
    assert!(status.metrics.gauge(Gauge::MaxTrialSimTimeNs) > 0);

    let report = server.shutdown().unwrap();
    assert_eq!(report.interrupted(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A retried trial resumes from its checkpoint (warm lineage) and still
/// reproduces the straight-run digest — the PR's core recovery claim,
/// isolated from the rest of the chaos campaign.
#[test]
fn retry_resumes_from_checkpoint_and_reproduces_golden_digest() {
    let dir = scratch("retry");
    let mut config = quick_config(dir.clone());
    config.workers = 1;
    config.chaos = ChaosPlan {
        entries: vec![ChaosEntry {
            seed: 21,
            at: SimTime::from_secs(6),
            kind: ChaosKind::Panic,
            attempts: 1,
        }],
    };
    let server = CampaignServer::start(config).unwrap();
    server.submit(tiny_scenario(21)).unwrap();
    let report = server.finish().unwrap();

    let trial = &report.trials[0];
    assert_eq!(trial.attempts.len(), 1);
    assert_eq!(trial.attempts[0].failure.kind(), "panicked");
    let TrialOutcome::Completed {
        digest,
        events,
        lineage,
        ..
    } = &trial.outcome
    else {
        panic!("trial must complete on retry: {trial:?}");
    };
    assert!(!lineage.is_cold(), "second attempt must start warm");
    assert!(lineage.resume_step > 0);
    let straight = digest_scenario(&tiny_scenario(21));
    assert_eq!((*digest, *events), (straight.digest, straight.events));

    // Retry provenance lands in the manifest, with lineage.
    let manifest = trial.manifest("server_test").to_json();
    assert_eq!(
        manifest
            .get("attempts")
            .and_then(cavenet_telemetry::Json::as_u64),
        Some(2)
    );
    assert!(manifest.get("parent_snapshot_hash").is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Graceful shutdown checkpoints the in-flight trial; a later server
/// resumes it from that checkpoint and replays completed trials straight
/// from the ledger.
#[test]
fn shutdown_is_resumable_via_ledger_and_checkpoints() {
    let dir = scratch("resume");

    // Campaign 1: one trial completes clean, a second wedges mid-run
    // (stall chaos, watchdog disabled) and is shut down underneath.
    let mut config = quick_config(dir.clone());
    config.workers = 2;
    config.stall_timeout = Duration::from_secs(60); // watchdog stays out
    config.chaos = ChaosPlan {
        entries: vec![ChaosEntry {
            seed: 32,
            at: SimTime::from_secs(6),
            kind: ChaosKind::Stall {
                max_wall: Duration::from_secs(30),
            },
            attempts: 1,
        }],
    };
    let server = CampaignServer::start(config).unwrap();
    server.submit(tiny_scenario(31)).unwrap();
    server.submit(tiny_scenario(32)).unwrap();
    // Let the clean trial finish and the wedged one reach its stall.
    std::thread::sleep(Duration::from_millis(500));
    let report = server.shutdown().unwrap();
    assert_eq!(report.completed(), 1);
    assert_eq!(report.interrupted(), 1);
    let interrupted_dir = dir.join(TrialKey::of(&tiny_scenario(32)).dir_name());
    assert!(
        interrupted_dir.is_dir(),
        "interrupted trial must leave a checkpoint store"
    );

    // Campaign 2, same root: the completed trial replays from the ledger
    // without running; the interrupted one resumes from its checkpoint.
    let config = quick_config(dir.clone());
    let server = CampaignServer::start(config).unwrap();
    server.submit(tiny_scenario(31)).unwrap();
    server.submit(tiny_scenario(32)).unwrap();
    let report = server.finish().unwrap();
    assert_eq!(report.completed(), 2);
    assert_eq!(report.replayed(), 1, "ledger replays the finished trial");
    for trial in &report.trials {
        let TrialOutcome::Completed {
            digest,
            events,
            lineage,
            replayed,
        } = &trial.outcome
        else {
            panic!("all trials must complete: {trial:?}");
        };
        let straight = digest_scenario(&tiny_scenario(trial.key.seed));
        assert_eq!((*digest, *events), (straight.digest, straight.events));
        if !replayed {
            assert!(
                !lineage.is_cold(),
                "resumed trial must start from the shutdown checkpoint"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A supervised trial's store is bounded: when the trial completes, its
/// directory holds its two newest snapshots. A complete snapshot left
/// under a `.tmp` name (a writer that died before its rename) is ignored
/// by the resume scan and by the pruning.
#[test]
fn trial_store_keeps_two_snapshots_and_ignores_stale_tmp() {
    let dir = scratch("bounded");
    let scenario = tiny_scenario(61);
    let trial_dir = dir.join(TrialKey::of(&scenario).dir_name());
    // 6 s falls between the 4 s checkpoints, so no write reuses the name.
    let exp = Experiment::new(scenario.clone());
    let (mut sim, recorder) = exp.build_sim(GoldenDigest::new()).unwrap();
    sim.run_until(SimTime::from_secs(6));
    let bytes = exp.snapshot_now(&sim, &recorder).unwrap().to_bytes();
    std::fs::create_dir_all(&trial_dir).unwrap();
    let stale = trial_dir.join(format!("{}.tmp", store::file_name(6_000_000_000)));
    std::fs::write(&stale, bytes).unwrap();

    let server = CampaignServer::start(quick_config(dir.clone())).unwrap();
    server.submit(scenario.clone()).unwrap();
    let report = server.finish().unwrap();
    let TrialOutcome::Completed {
        digest,
        events,
        lineage,
        ..
    } = &report.trials[0].outcome
    else {
        panic!("clean trial must complete: {:?}", report.trials[0]);
    };
    assert!(lineage.is_cold(), "resume must not read the stale .tmp");
    let straight = digest_scenario(&scenario);
    assert_eq!((*digest, *events), (straight.digest, straight.events));

    let kept: Vec<u64> = store::list_newest_first(&trial_dir)
        .unwrap()
        .iter()
        .filter_map(|p| store::capture_time(p))
        .collect();
    assert_eq!(
        kept,
        vec![12_000_000_000, 8_000_000_000],
        "a completed trial keeps its two newest snapshots"
    );
    assert!(stale.exists(), "pruning leaves non-checkpoint files alone");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Admission control under pressure: with the single worker wedged, the
/// bounded queue sheds load with a typed rejection.
#[test]
fn full_queue_sheds_load_with_typed_rejection() {
    let dir = scratch("queuefull");
    let mut config = quick_config(dir.clone());
    config.workers = 1;
    config.queue_capacity = 2;
    config.node_budget = u64::MAX;
    config.stall_timeout = Duration::from_secs(60); // keep the wedge wedged
    config.chaos = ChaosPlan {
        entries: vec![ChaosEntry {
            seed: 41,
            at: SimTime::ZERO,
            kind: ChaosKind::Stall {
                max_wall: Duration::from_secs(30),
            },
            attempts: u64::MAX,
        }],
    };
    let server = CampaignServer::start(config).unwrap();
    server.submit(tiny_scenario(41)).unwrap();
    // Let the worker claim (and wedge on) the first trial, so the queue
    // itself is what fills up next.
    std::thread::sleep(Duration::from_millis(150));
    server.submit(tiny_scenario(42)).unwrap();
    server.submit(tiny_scenario(43)).unwrap();
    match server.submit(tiny_scenario(44)) {
        Err(AdmissionError::QueueFull { capacity }) => assert_eq!(capacity, 2),
        other => panic!("expected QueueFull, got {other:?}"),
    }
    let report = server.shutdown().unwrap();
    // Nothing was lost silently: every admitted trial is accounted for.
    assert_eq!(report.trials.len(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Wait until the campaign has nothing queued, parked or running.
fn settle(server: &CampaignServer) {
    loop {
        let status = server.status();
        if status.queued == 0 && status.delayed == 0 && status.running.is_empty() {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A concluded trial gives its nodes back to the admission budget. With
/// the budget one trial wide, the next submission is admitted once a
/// trial has completed, and again once a poison trial is quarantined.
#[test]
fn concluded_trials_release_their_node_budget() {
    let dir = scratch("release");
    let mut config = quick_config(dir.clone());
    config.workers = 1;
    config.node_budget = tiny_scenario(0).nodes as u64;
    config.chaos = ChaosPlan {
        entries: vec![ChaosEntry {
            seed: 72,
            at: SimTime::from_secs(1),
            kind: ChaosKind::Panic,
            attempts: u64::MAX,
        }],
    };
    let server = CampaignServer::start(config).unwrap();
    server.submit(tiny_scenario(71)).unwrap();
    settle(&server);
    server
        .submit(tiny_scenario(72))
        .expect("a completed trial released its nodes");
    settle(&server);
    server
        .submit(tiny_scenario(73))
        .expect("a quarantined trial released its nodes");
    let report = server.finish().unwrap();
    assert_eq!(report.completed(), 2);
    assert_eq!(report.quarantined(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Why the stream probe beats mid-slice: a trial run as one checkpoint
/// slice, which outlasts the stall timeout many times over, must not be
/// mistaken for a wedge. The 100 s Table-1 AODV slice takes about 2 s in
/// a debug build and 0.2 s in release, against the 150 ms timeout; with
/// beats only at slice ends the watchdog would cancel it.
#[test]
fn long_slice_lives_on_mid_slice_heartbeats() {
    let dir = scratch("long-slice");
    let mut scenario = Scenario::paper_table1(Protocol::Aodv);
    scenario.seed = 91;
    let mut config = quick_config(dir.clone());
    config.workers = 1;
    config.checkpoint_every = scenario.sim_time;
    let server = CampaignServer::start(config).unwrap();
    server.submit(scenario).unwrap();
    let report = server.finish().unwrap();
    let trial = &report.trials[0];
    assert!(
        trial.attempts.is_empty(),
        "the long slice failed: {:?}",
        trial.attempts
    );
    assert!(matches!(
        trial.outcome,
        TrialOutcome::Completed {
            replayed: false,
            ..
        }
    ));
    assert_eq!(report.metrics.counter(Counter::WatchdogStalls), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A campaign root whose last ledger save died mid-write still starts.
/// The save goes through a `.tmp` renamed into place, so a torn file can
/// only be that `.tmp`, which `start` never reads, and completed trials
/// still replay from `ledger.json`.
#[test]
fn torn_ledger_tmp_does_not_block_restart() {
    let dir = scratch("torn-ledger");
    let config = quick_config(dir.clone());
    let scenario = tiny_scenario(81);
    let mut ledger = CampaignLedger::new(config.seed);
    ledger.record(
        TrialKey::of(&scenario),
        TrialState::Completed {
            digest: 0xfeed,
            events: 7,
            attempts: 1,
        },
    );
    ledger.save(&config.ledger_path()).unwrap();
    let torn = dir.join("ledger.json.tmp");
    std::fs::write(&torn, "{\"ledger_version\": 1, \"trials\": [").unwrap();

    let server = CampaignServer::start(config).expect("a torn .tmp must not stop start");
    server.submit(scenario).unwrap();
    let report = server.finish().unwrap();
    assert!(matches!(
        report.trials[0].outcome,
        TrialOutcome::Completed {
            digest: 0xfeed,
            events: 7,
            replayed: true,
            ..
        }
    ));
    assert!(!torn.exists(), "the final save renamed its .tmp into place");
    assert!(CampaignLedger::load(&report.ledger_path).unwrap().is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Backoff is a pure function of (campaign seed, trial key, attempt):
    /// recomputing it gives the same delay, and the delay respects the
    /// jittered envelope bounds at every attempt.
    #[test]
    fn backoff_is_deterministic_and_bounded(
        campaign_seed in any::<u64>(),
        scenario_hash in any::<u64>(),
        trial_seed in any::<u64>(),
        attempt in 1u64..40,
        base_ms in 1u64..50,
        cap_ms in 50u64..2_000,
        jitter in 0.0f64..1.0,
    ) {
        let policy = BackoffPolicy {
            base: Duration::from_millis(base_ms),
            cap: Duration::from_millis(cap_ms),
            jitter,
        };
        let key = TrialKey { scenario_hash, seed: trial_seed };
        let delay = policy.delay(campaign_seed, key, attempt);
        prop_assert_eq!(
            delay,
            policy.delay(campaign_seed, key, attempt),
            "backoff must be deterministic"
        );
        let envelope = policy.envelope(attempt);
        prop_assert!(delay <= envelope, "{:?} exceeds envelope {:?}", delay, envelope);
        prop_assert!(delay <= policy.cap, "{:?} exceeds cap {:?}", delay, policy.cap);
        // 1 ns tolerance for Duration::mul_f64 rounding at the floor.
        let floor = envelope
            .mul_f64(1.0 - jitter)
            .saturating_sub(Duration::from_nanos(1));
        prop_assert!(
            delay >= floor,
            "{:?} below jitter floor of {:?}",
            delay,
            envelope
        );
    }

    /// The undithered envelope is monotone non-decreasing in the attempt
    /// number and saturates at the cap.
    #[test]
    fn backoff_envelope_is_monotone_and_saturating(
        base_ms in 1u64..100,
        cap_ms in 1u64..5_000,
        attempt in 1u64..80,
    ) {
        let policy = BackoffPolicy {
            base: Duration::from_millis(base_ms),
            cap: Duration::from_millis(cap_ms),
            jitter: 0.3,
        };
        prop_assert!(policy.envelope(attempt) <= policy.envelope(attempt + 1));
        prop_assert!(policy.envelope(attempt) <= policy.cap.max(policy.base));
        // Far past saturation the envelope is pinned to the cap.
        prop_assert_eq!(policy.envelope(200), policy.cap.min(policy.envelope(200)));
    }
}
