//! The campaign supervisor: worker pool, watchdog and trial driver.
//!
//! A [`CampaignServer`] owns a pool of worker threads pulling admitted
//! trials from a bounded queue, plus one watchdog thread. Each attempt
//! runs inside `catch_unwind` on its worker: the trial driver resumes
//! from the newest readable checkpoint in the trial's store, then runs
//! the simulation in checkpoint-interval slices, writing a snapshot and
//! publishing a heartbeat at every slice boundary. One driver serves
//! both fidelities through `cavenet-core`'s [`Engine`] trait; only the
//! engine builder differs. Unwinds are classified into typed
//! [`TrialFailure`]s and either retried (after a deterministic backoff
//! delay, from the checkpoint the dead attempt left behind) or
//! quarantined once the attempt budget is spent.
//!
//! Each trial's store keeps only its two newest checkpoints: the newest
//! to resume from, and one fallback should the newest fail to read.
//!
//! The watchdog polls every running trial's heartbeat. A heartbeat that
//! stops advancing past the stall timeout gets the trial cancelled (the
//! probe unwinds it with [`TrialCancelled`] at its next beat); a
//! cancelled trial that still does not unwind within the lost grace
//! period is abandoned — its report records [`TrialFailure::Lost`], its
//! wedged worker is written off and a replacement worker is spawned so
//! pool capacity survives.
//!
//! Graceful shutdown raises [`CancelSignal::Shutdown`] on every running
//! trial; drivers notice it at the next slice boundary, write a final
//! checkpoint and report the trial interrupted. Everything — completed
//! digests, quarantine histories, interrupted and never-started trials —
//! lands in the [`CampaignLedger`], which a future server instance loads
//! to replay completed work and resume the rest.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, Once};
use std::time::{Duration, Instant};

use cavenet_checkpoint::{store, Snapshot};
use cavenet_core::{
    CheckpointError, Engine, Experiment, Fidelity, Lineage, Scenario, ScenarioError,
};
use cavenet_net::{
    CancelSignal, GoldenDigest, ProgressHandle, ProgressProbe, SimTime, Tee, TrialCancelled,
};
use cavenet_telemetry::{
    Counter, Gauge, HistogramId, MetricsRegistry, RunManifest, SnapshotBus, SnapshotPublisher,
    StreamProbe,
};

use crate::admission::AdmissionError;
use crate::backoff::BackoffPolicy;
use crate::chaos::{ChaosObserver, ChaosPlan};
use crate::failure::{TrialAttempt, TrialFailure};
use crate::ledger::{CampaignLedger, TrialKey, TrialState};
use crate::metrics::ServerMetrics;

/// Checkpoints a supervised trial's store keeps: after every write, all
/// but the newest two are deleted.
const KEPT_SNAPSHOTS: usize = 2;

/// Handle of one admitted trial, unique within a server instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TrialId(pub u64);

/// Everything that tunes a [`CampaignServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing trials.
    pub workers: usize,
    /// Maximum trials waiting (queued plus backoff-delayed) before
    /// submission is refused with [`AdmissionError::QueueFull`].
    pub queue_capacity: usize,
    /// Maximum total node count across queued and running trials before
    /// submission is shed with [`AdmissionError::OverBudget`].
    pub node_budget: u64,
    /// Attempts before a trial is quarantined as poison.
    pub max_attempts: u64,
    /// Retry delay policy, seeded from [`seed`](Self::seed).
    pub backoff: BackoffPolicy,
    /// Wall time a heartbeat may sit still before the watchdog cancels
    /// the trial as stalled.
    pub stall_timeout: Duration,
    /// Wall time a cancelled trial gets to unwind before it is abandoned
    /// as lost and its worker written off.
    pub lost_grace: Duration,
    /// Watchdog poll interval.
    pub poll: Duration,
    /// Heartbeat stride: events dispatched between probe beats.
    pub heartbeat_stride: u64,
    /// Virtual-time interval between checkpoints (also the shutdown and
    /// resume granularity).
    pub checkpoint_every: Duration,
    /// Root directory: one checkpoint store per trial underneath, plus
    /// the campaign ledger.
    pub checkpoint_root: PathBuf,
    /// Campaign seed: the deterministic source backoff jitter derives
    /// from, recorded in the ledger.
    pub seed: u64,
    /// Execution-fault injection plan (empty in production).
    pub chaos: ChaosPlan,
    /// Live observability bus: when set, every trial streams registry
    /// snapshots onto it (via an armed [`StreamProbe`] in the observer
    /// stack) and the watchdog publishes supervisor metrics each poll.
    /// `None` (the default) attaches a disarmed probe — the golden
    /// digests are bit-identical either way.
    pub bus: Option<SnapshotBus>,
    /// Events dispatched between trial snapshot publications (clamped to
    /// ≥ 1). Only meaningful with [`bus`](Self::bus) set.
    pub snapshot_stride: u64,
}

impl ServerConfig {
    /// Production-shaped defaults rooted at `checkpoint_root`.
    pub fn new(checkpoint_root: impl Into<PathBuf>) -> Self {
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
            node_budget: 4096,
            max_attempts: 3,
            backoff: BackoffPolicy::default(),
            stall_timeout: Duration::from_secs(5),
            lost_grace: Duration::from_secs(30),
            poll: Duration::from_millis(20),
            heartbeat_stride: 256,
            checkpoint_every: Duration::from_secs(4),
            checkpoint_root: checkpoint_root.into(),
            seed: 0,
            chaos: ChaosPlan::none(),
            bus: None,
            snapshot_stride: 4096,
        }
    }

    /// Where this configuration keeps the campaign ledger.
    pub fn ledger_path(&self) -> PathBuf {
        self.checkpoint_root.join("ledger.json")
    }
}

/// Terminal state of one trial in a [`CampaignReport`].
#[derive(Debug, Clone, PartialEq)]
pub enum TrialOutcome {
    /// The trial finished (possibly after retries).
    Completed {
        /// Golden event-stream digest — bit-identical to an unsupervised
        /// straight run of the same scenario.
        digest: u64,
        /// Engine events dispatched across the whole virtual timeline.
        events: u64,
        /// Checkpoint lineage of the successful attempt (cold when it ran
        /// start-to-finish).
        lineage: Lineage,
        /// True when the result was replayed from a prior campaign's
        /// ledger without running the simulator.
        replayed: bool,
    },
    /// The attempt budget was exhausted; see
    /// [`TrialReport::attempts`] for the failure history.
    Quarantined,
    /// A shutdown caught the trial mid-run; it checkpointed and will
    /// resume when resubmitted.
    Interrupted,
    /// A shutdown drained the trial from the queue before it started.
    Pending,
}

/// The full record of one submitted trial.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialReport {
    /// Submission handle.
    pub id: TrialId,
    /// Trial identity (scenario hash + seed).
    pub key: TrialKey,
    /// Every failed attempt, oldest first.
    pub attempts: Vec<TrialAttempt>,
    /// How the trial ended.
    pub outcome: TrialOutcome,
    /// Simulation backend the trial's scenario selected
    /// ([`Fidelity::name`](cavenet_core::Fidelity::name): "exact",
    /// "fluid").
    pub backend: &'static str,
}

impl TrialReport {
    /// Total attempts consumed (failed ones plus the successful one).
    pub fn attempt_count(&self) -> u64 {
        let succeeded = matches!(
            self.outcome,
            TrialOutcome::Completed {
                replayed: false,
                ..
            }
        );
        (self.attempts.len() as u64 + u64::from(succeeded)).max(1)
    }

    /// A [`RunManifest`] for this trial: identity, the simulation
    /// backend, checkpoint lineage of the surviving attempt, and the
    /// retry/quarantine record. Clean first-try trials produce a manifest
    /// byte-identical to an unsupervised run's that stamps the same
    /// backend.
    pub fn manifest(&self, tool: &str) -> RunManifest {
        let mut m = RunManifest::new(tool);
        m.scenario_hash = self.key.scenario_hash;
        m.seed = self.key.seed;
        if let TrialOutcome::Completed { lineage, .. } = &self.outcome {
            if !lineage.is_cold() {
                m.set_lineage(lineage.parent_snapshot_hash, lineage.resume_step);
            }
        }
        m.set_retries(
            self.attempt_count(),
            self.attempts.iter().map(ToString::to_string).collect(),
            matches!(self.outcome, TrialOutcome::Quarantined),
        );
        m.set_backend(self.backend);
        m
    }
}

/// What a finished (or shut down) campaign produced.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// One report per submitted trial, in completion order.
    pub trials: Vec<TrialReport>,
    /// The ledger as written to disk (prior entries carried over).
    pub ledger: CampaignLedger,
    /// Where the ledger was written.
    pub ledger_path: PathBuf,
    /// Final snapshot of the supervisor metrics (admissions, sheds,
    /// retries, stalls, quarantines, backoff delays...).
    pub metrics: MetricsRegistry,
}

impl CampaignReport {
    fn count(&self, f: impl Fn(&TrialOutcome) -> bool) -> usize {
        self.trials.iter().filter(|t| f(&t.outcome)).count()
    }

    /// Trials that completed (including replayed ones).
    pub fn completed(&self) -> usize {
        self.count(|o| matches!(o, TrialOutcome::Completed { .. }))
    }

    /// Trials replayed from a prior ledger without running.
    pub fn replayed(&self) -> usize {
        self.count(|o| matches!(o, TrialOutcome::Completed { replayed: true, .. }))
    }

    /// Trials quarantined as poison.
    pub fn quarantined(&self) -> usize {
        self.count(|o| matches!(o, TrialOutcome::Quarantined))
    }

    /// Trials interrupted mid-run by shutdown.
    pub fn interrupted(&self) -> usize {
        self.count(|o| matches!(o, TrialOutcome::Interrupted))
    }
}

/// Live heartbeat view of one in-flight trial (see
/// [`CampaignServer::status`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialProgress {
    /// Submission handle.
    pub id: TrialId,
    /// The trial's seed.
    pub seed: u64,
    /// 1-based attempt currently running.
    pub attempt: u64,
    /// Work done by this attempt as of the last heartbeat: events
    /// dispatched (exact) or model steps (fluid). Mid-slice beats are
    /// rounded down to the heartbeat stride; the beat at each slice end
    /// is exact.
    pub beats: u64,
    /// Virtual time reached as of the last heartbeat.
    pub sim_time: SimTime,
}

/// A point-in-time view of a running campaign (see
/// [`CampaignServer::status`]).
#[derive(Debug, Clone)]
pub struct ServerStatus {
    /// Trials waiting in the admission queue.
    pub queued: usize,
    /// Failed trials parked in backoff.
    pub delayed: usize,
    /// Worker threads alive.
    pub workers_alive: usize,
    /// Every in-flight trial's heartbeat progress.
    pub running: Vec<TrialProgress>,
    /// Supervisor metrics snapshot at the same instant.
    pub metrics: MetricsRegistry,
}

/// One unit of queued work: a scenario plus its retry history.
#[derive(Debug, Clone)]
struct Job {
    id: TrialId,
    key: TrialKey,
    scenario: Scenario,
    /// 1-based number of the attempt this job will run.
    attempt: u64,
    history: Vec<TrialAttempt>,
}

/// Backoff parking slot for a job awaiting its retry time.
#[derive(Debug)]
struct Delayed {
    ready_at: Instant,
    job: Job,
}

/// Watchdog bookkeeping for an in-flight trial.
#[derive(Debug)]
struct Running {
    handle: ProgressHandle,
    job: Job,
    last_beats: u64,
    last_advance: Instant,
    cancelled_at: Option<Instant>,
}

#[derive(Debug, Default)]
struct State {
    queue: VecDeque<Job>,
    delayed: Vec<Delayed>,
    running: Vec<Running>,
    reports: Vec<TrialReport>,
    admitted_nodes: u64,
    next_id: u64,
    workers_alive: usize,
    /// No new submissions; running trials are asked to checkpoint out.
    shutting_down: bool,
    /// Workers exit once the queue and the delay park are empty.
    draining: bool,
}

struct Shared {
    config: ServerConfig,
    state: Mutex<State>,
    /// Workers wait here for queue items (or the draining flag).
    work: Condvar,
    /// Completion waiters (`finish`/`shutdown`) wait here.
    progress: Condvar,
    stop_watchdog: AtomicBool,
    /// Live supervisor metrics (see [`ServerMetrics`]).
    metrics: ServerMetrics,
    /// Publisher for the supervisor's own snapshots, when a bus is
    /// configured.
    publisher: Option<SnapshotPublisher>,
}

/// Refresh the point-in-time supervisor gauges from the locked state.
/// Called at every mutation site and on each watchdog tick, so a live
/// reader is never more than one poll behind.
fn refresh_gauges(st: &State, metrics: &ServerMetrics) {
    metrics.set(Gauge::QueueDepth, st.queue.len() as u64);
    metrics.set(Gauge::BackoffParked, st.delayed.len() as u64);
    metrics.set(Gauge::RunningTrials, st.running.len() as u64);
    metrics.set(Gauge::WorkersAlive, st.workers_alive as u64);
    let frontier = st
        .running
        .iter()
        .map(|r| r.handle.sim_time().as_nanos())
        .max()
        .unwrap_or(0);
    metrics.set(Gauge::MaxTrialSimTimeNs, frontier);
}

/// The supervised campaign executor: a worker pool, a watchdog and one
/// trial driver for both fidelities (see the crate docs).
pub struct CampaignServer {
    shared: Arc<Shared>,
    prior: CampaignLedger,
    watchdog: Option<std::thread::JoinHandle<()>>,
    concluded: bool,
}

impl CampaignServer {
    /// Start workers and watchdog. An existing ledger under the
    /// configured root is loaded: trials it records as completed will be
    /// replayed from the record instead of re-run.
    ///
    /// # Errors
    ///
    /// A zero [`checkpoint_every`](ServerConfig::checkpoint_every) (every
    /// trial would snapshot forever without advancing virtual time), or a
    /// present-but-unreadable ledger (it guards against re-execution, so
    /// it must not be silently ignored).
    pub fn start(config: ServerConfig) -> Result<CampaignServer, String> {
        if config.checkpoint_every.is_zero() {
            return Err(CheckpointError::ZeroInterval.to_string());
        }
        let prior = CampaignLedger::load(&config.ledger_path())?
            .unwrap_or_else(|| CampaignLedger::new(config.seed));
        let workers = config.workers.max(1);
        let publisher = config.bus.as_ref().map(|bus| bus.publisher("supervisor"));
        let shared = Arc::new(Shared {
            config,
            state: Mutex::new(State::default()),
            work: Condvar::new(),
            progress: Condvar::new(),
            stop_watchdog: AtomicBool::new(false),
            metrics: ServerMetrics::new(),
            publisher,
        });
        for _ in 0..workers {
            spawn_worker(Arc::clone(&shared));
        }
        let watchdog = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || watchdog_loop(&shared))
        };
        Ok(CampaignServer {
            shared,
            prior,
            watchdog: Some(watchdog),
            concluded: false,
        })
    }

    /// Admit `scenario` for supervised execution.
    ///
    /// A trial the prior ledger records as completed is not re-run: it is
    /// immediately reported as [`TrialOutcome::Completed`] with
    /// `replayed: true` and the recorded digest.
    ///
    /// # Errors
    ///
    /// A typed [`AdmissionError`] when the scenario is invalid, the queue
    /// is full, the node budget would be exceeded, or the server is
    /// shutting down. Rejected submissions consume nothing.
    pub fn submit(&self, scenario: Scenario) -> Result<TrialId, AdmissionError> {
        scenario.validate().map_err(AdmissionError::Invalid)?;
        let key = TrialKey::of(&scenario);
        let nodes = scenario.nodes as u64;
        let config = &self.shared.config;
        let mut st = self.shared.state.lock().expect("state lock");
        if st.shutting_down || st.draining {
            return Err(AdmissionError::ShuttingDown);
        }
        let id = TrialId(st.next_id);
        if let Some(TrialState::Completed { digest, events, .. }) = self.prior.get(key) {
            st.next_id += 1;
            st.reports.push(TrialReport {
                id,
                key,
                attempts: Vec::new(),
                outcome: TrialOutcome::Completed {
                    digest: *digest,
                    events: *events,
                    lineage: Lineage::default(),
                    replayed: true,
                },
                backend: scenario.fidelity.name(),
            });
            self.shared.metrics.inc(Counter::TrialsSubmitted);
            self.shared.metrics.inc(Counter::TrialsCompleted);
            return Ok(id);
        }
        if st.queue.len() + st.delayed.len() >= config.queue_capacity {
            self.shared.metrics.inc(Counter::AdmissionSheds);
            return Err(AdmissionError::QueueFull {
                capacity: config.queue_capacity,
            });
        }
        if st.admitted_nodes + nodes > config.node_budget {
            self.shared.metrics.inc(Counter::AdmissionSheds);
            return Err(AdmissionError::OverBudget {
                requested: nodes,
                admitted: st.admitted_nodes,
                budget: config.node_budget,
            });
        }
        st.next_id += 1;
        st.admitted_nodes += nodes;
        st.queue.push_back(Job {
            id,
            key,
            scenario,
            attempt: 1,
            history: Vec::new(),
        });
        self.shared.metrics.inc(Counter::TrialsSubmitted);
        refresh_gauges(&st, &self.shared.metrics);
        drop(st);
        self.shared.work.notify_one();
        Ok(id)
    }

    /// A clone-cheap handle to the live supervisor metrics, pollable from
    /// any thread while the campaign runs.
    pub fn metrics(&self) -> ServerMetrics {
        self.shared.metrics.clone()
    }

    /// A point-in-time view of the campaign: queue occupancy, every
    /// in-flight trial's heartbeat progress (events *and* sim-time, from
    /// the [`ProgressHandle`]), and the supervisor metrics snapshot.
    pub fn status(&self) -> ServerStatus {
        let st = self.shared.state.lock().expect("state lock");
        ServerStatus {
            queued: st.queue.len(),
            delayed: st.delayed.len(),
            workers_alive: st.workers_alive,
            running: st
                .running
                .iter()
                .map(|r| TrialProgress {
                    id: r.job.id,
                    seed: r.job.key.seed,
                    attempt: r.job.attempt,
                    beats: r.handle.beats(),
                    sim_time: r.handle.sim_time(),
                })
                .collect(),
            metrics: self.shared.metrics.snapshot(),
        }
    }

    /// Wait for every admitted trial to reach a terminal state, then stop
    /// the pool, write the ledger and return the campaign report.
    ///
    /// # Errors
    ///
    /// Failure to write the ledger.
    pub fn finish(mut self) -> Result<CampaignReport, std::io::Error> {
        {
            let mut st = self.shared.state.lock().expect("state lock");
            while !(st.queue.is_empty() && st.delayed.is_empty() && st.running.is_empty()) {
                st = self
                    .shared
                    .progress
                    .wait_timeout(st, Duration::from_millis(50))
                    .expect("state lock")
                    .0;
            }
            st.draining = true;
        }
        self.shared.work.notify_all();
        self.conclude()
    }

    /// Graceful shutdown: refuse new work, drain never-started trials to
    /// [`TrialOutcome::Pending`], ask running trials to checkpoint out
    /// ([`TrialOutcome::Interrupted`]), write the resumable ledger and
    /// return the report.
    ///
    /// # Errors
    ///
    /// Failure to write the ledger.
    pub fn shutdown(mut self) -> Result<CampaignReport, std::io::Error> {
        {
            let mut st = self.shared.state.lock().expect("state lock");
            st.shutting_down = true;
            st.draining = true;
            for running in &st.running {
                running.handle.cancel(CancelSignal::Shutdown);
            }
            let mut parked: Vec<Job> = st.queue.drain(..).collect();
            parked.extend(st.delayed.drain(..).map(|d| d.job));
            for job in parked {
                st.admitted_nodes = st.admitted_nodes.saturating_sub(job.scenario.nodes as u64);
                st.reports.push(TrialReport {
                    id: job.id,
                    key: job.key,
                    backend: job.scenario.fidelity.name(),
                    attempts: job.history,
                    outcome: TrialOutcome::Pending,
                });
            }
            while !st.running.is_empty() {
                st = self
                    .shared
                    .progress
                    .wait_timeout(st, Duration::from_millis(50))
                    .expect("state lock")
                    .0;
            }
        }
        self.shared.work.notify_all();
        self.conclude()
    }

    /// Stop threads, build and persist the ledger, assemble the report.
    fn conclude(&mut self) -> Result<CampaignReport, std::io::Error> {
        {
            let mut st = self.shared.state.lock().expect("state lock");
            let patience = Instant::now() + Duration::from_secs(10);
            while st.workers_alive > 0 && Instant::now() < patience {
                st = self
                    .shared
                    .progress
                    .wait_timeout(st, Duration::from_millis(50))
                    .expect("state lock")
                    .0;
            }
        }
        self.stop_threads();
        self.concluded = true;
        let trials = {
            let mut st = self.shared.state.lock().expect("state lock");
            std::mem::take(&mut st.reports)
        };
        let config = &self.shared.config;
        let mut ledger = self.prior.clone();
        ledger.campaign_seed = config.seed;
        for report in &trials {
            let state = match &report.outcome {
                TrialOutcome::Completed { replayed: true, .. } => continue,
                TrialOutcome::Completed { digest, events, .. } => TrialState::Completed {
                    digest: *digest,
                    events: *events,
                    attempts: report.attempt_count(),
                },
                TrialOutcome::Quarantined => TrialState::Quarantined {
                    failures: report.attempts.iter().map(ToString::to_string).collect(),
                },
                TrialOutcome::Interrupted => TrialState::Interrupted {
                    attempts: report.attempts.len() as u64,
                },
                TrialOutcome::Pending => TrialState::Pending,
            };
            ledger.record(report.key, state);
        }
        let ledger_path = config.ledger_path();
        ledger.save(&ledger_path)?;
        // One final supervisor snapshot so a tailer sees the settled
        // counters even if the last watchdog tick raced conclusion.
        if let Some(publisher) = &self.shared.publisher {
            publisher.publish(0, 0, &self.shared.metrics.snapshot());
        }
        Ok(CampaignReport {
            trials,
            ledger,
            ledger_path,
            metrics: self.shared.metrics.snapshot(),
        })
    }

    fn stop_threads(&mut self) {
        self.shared.stop_watchdog.store(true, Ordering::Relaxed);
        self.shared.work.notify_all();
        if let Some(handle) = self.watchdog.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for CampaignServer {
    fn drop(&mut self) {
        if self.concluded {
            return;
        }
        {
            let mut st = self.shared.state.lock().expect("state lock");
            st.shutting_down = true;
            st.draining = true;
            for running in &st.running {
                running.handle.cancel(CancelSignal::Shutdown);
            }
        }
        self.stop_threads();
    }
}

fn spawn_worker(shared: Arc<Shared>) {
    shared.state.lock().expect("state lock").workers_alive += 1;
    std::thread::spawn(move || worker_loop(&shared));
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        // Pop and register atomically, so a trial is never invisible to
        // completion waiters between queue and running set.
        let claimed = {
            let mut st = shared.state.lock().expect("state lock");
            loop {
                if let Some(job) = st.queue.pop_front() {
                    let handle = ProgressHandle::new();
                    st.running.push(Running {
                        handle: handle.clone(),
                        job: job.clone(),
                        last_beats: 0,
                        last_advance: Instant::now(),
                        cancelled_at: None,
                    });
                    break Some((job, handle));
                }
                if st.draining && st.delayed.is_empty() {
                    st.workers_alive -= 1;
                    break None;
                }
                st = shared
                    .work
                    .wait_timeout(st, Duration::from_millis(20))
                    .expect("state lock")
                    .0;
            }
        };
        let Some((job, handle)) = claimed else {
            shared.progress.notify_all();
            return;
        };

        let result = run_supervised_attempt(&shared.config, &job, &handle);

        let mut st = shared.state.lock().expect("state lock");
        let Some(pos) = st.running.iter().position(|r| r.job.id == job.id) else {
            // The watchdog already declared this trial lost and recorded
            // its fate; this late result belongs to an abandoned attempt.
            drop(st);
            shared.progress.notify_all();
            continue;
        };
        st.running.swap_remove(pos);
        match result {
            AttemptResult::Completed {
                digest,
                events,
                lineage,
            } => {
                st.admitted_nodes = st.admitted_nodes.saturating_sub(job.scenario.nodes as u64);
                st.reports.push(TrialReport {
                    id: job.id,
                    key: job.key,
                    backend: job.scenario.fidelity.name(),
                    attempts: job.history,
                    outcome: TrialOutcome::Completed {
                        digest,
                        events,
                        lineage,
                        replayed: false,
                    },
                });
                shared.metrics.inc(Counter::TrialsCompleted);
            }
            AttemptResult::Interrupted => {
                st.admitted_nodes = st.admitted_nodes.saturating_sub(job.scenario.nodes as u64);
                st.reports.push(TrialReport {
                    id: job.id,
                    key: job.key,
                    backend: job.scenario.fidelity.name(),
                    attempts: job.history,
                    outcome: TrialOutcome::Interrupted,
                });
            }
            AttemptResult::Failed(failure) => {
                record_failure(&mut st, &shared.config, &shared.metrics, job, failure);
            }
        }
        refresh_gauges(&st, &shared.metrics);
        drop(st);
        shared.progress.notify_all();
    }
}

/// Fold one failed attempt into the state: quarantine past the budget,
/// park for a deterministic backoff delay otherwise (terminal under
/// shutdown, where retries would never run).
fn record_failure(
    st: &mut State,
    config: &ServerConfig,
    metrics: &ServerMetrics,
    job: Job,
    failure: TrialFailure,
) {
    let mut history = job.history;
    history.push(TrialAttempt {
        attempt: job.attempt,
        failure,
    });
    if st.shutting_down {
        st.admitted_nodes = st.admitted_nodes.saturating_sub(job.scenario.nodes as u64);
        st.reports.push(TrialReport {
            id: job.id,
            key: job.key,
            backend: job.scenario.fidelity.name(),
            attempts: history,
            outcome: TrialOutcome::Interrupted,
        });
        return;
    }
    if history.len() as u64 >= config.max_attempts {
        st.admitted_nodes = st.admitted_nodes.saturating_sub(job.scenario.nodes as u64);
        st.reports.push(TrialReport {
            id: job.id,
            key: job.key,
            backend: job.scenario.fidelity.name(),
            attempts: history,
            outcome: TrialOutcome::Quarantined,
        });
        metrics.inc(Counter::TrialsQuarantined);
        return;
    }
    let delay = config.backoff.delay(config.seed, job.key, job.attempt);
    metrics.inc(Counter::TrialRetries);
    metrics.observe(
        HistogramId::BackoffDelayNs,
        delay.as_nanos().min(u128::from(u64::MAX)) as u64,
    );
    st.delayed.push(Delayed {
        ready_at: Instant::now() + delay,
        job: Job {
            attempt: job.attempt + 1,
            history,
            ..job
        },
    });
}

fn watchdog_loop(shared: &Arc<Shared>) {
    while !shared.stop_watchdog.load(Ordering::Relaxed) {
        std::thread::sleep(shared.config.poll);
        let now = Instant::now();
        let mut replacements = 0;
        {
            let mut st = shared.state.lock().expect("state lock");
            // Promote delayed jobs whose backoff has elapsed.
            let mut promoted = false;
            let mut i = 0;
            while i < st.delayed.len() {
                if st.delayed[i].ready_at <= now {
                    let slot = st.delayed.swap_remove(i);
                    st.queue.push_back(slot.job);
                    promoted = true;
                } else {
                    i += 1;
                }
            }
            if promoted {
                shared.work.notify_all();
            }
            // Heartbeat scan: cancel stalls, abandon the unkillable.
            let mut lost = Vec::new();
            for r in &mut st.running {
                let beats = r.handle.beats();
                if beats != r.last_beats {
                    r.last_beats = beats;
                    r.last_advance = now;
                    continue;
                }
                match r.cancelled_at {
                    None => {
                        if now.duration_since(r.last_advance) >= shared.config.stall_timeout {
                            r.handle.cancel(CancelSignal::Stall);
                            r.cancelled_at = Some(now);
                            shared.metrics.inc(Counter::WatchdogStalls);
                        }
                    }
                    Some(cancelled) => {
                        if now.duration_since(cancelled) >= shared.config.lost_grace {
                            lost.push(r.job.id);
                        }
                    }
                }
            }
            for id in lost {
                if let Some(pos) = st.running.iter().position(|r| r.job.id == id) {
                    let abandoned = st.running.swap_remove(pos);
                    shared.metrics.inc(Counter::TrialsLost);
                    record_failure(
                        &mut st,
                        &shared.config,
                        &shared.metrics,
                        abandoned.job,
                        TrialFailure::Lost,
                    );
                    replacements += 1;
                }
            }
            if replacements > 0 {
                shared.progress.notify_all();
            }
            refresh_gauges(&st, &shared.metrics);
        }
        // Publish the supervisor's own snapshot outside the state lock.
        if let Some(publisher) = &shared.publisher {
            publisher.publish(0, 0, &shared.metrics.snapshot());
        }
        // The wedged workers are written off; restore pool capacity.
        for _ in 0..replacements {
            spawn_worker(Arc::clone(shared));
        }
    }
}

/// One attempt's result, as seen by the worker's outcome handler.
enum AttemptResult {
    Completed {
        digest: u64,
        events: u64,
        lineage: Lineage,
    },
    Interrupted,
    Failed(TrialFailure),
}

/// The trial's observer stack: heartbeat probe, chaos injector, stream
/// probe (armed only when a bus is configured), golden digest. Only the
/// digest carries checkpointable state — the stream probe deliberately
/// keeps the default empty capture/restore — so the OBSERVER snapshot
/// section is exactly the digest's `(value, events)` pair, unchanged from
/// the pre-streaming format.
type TrialObserver = Tee<ProgressProbe, Tee<ChaosObserver, Tee<StreamProbe, GoldenDigest>>>;

thread_local! {
    /// True while this thread is executing a supervised attempt — its
    /// panics are expected, caught, and should not spam stderr.
    static SUPERVISED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

static QUIET_HOOK: Once = Once::new();

/// Chain a panic hook that silences panics from supervised attempts
/// (they are caught and classified) while delegating everything else to
/// the previously installed hook.
fn install_quiet_hook() {
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SUPERVISED.with(std::cell::Cell::get) {
                prev(info);
            }
        }));
    });
}

fn run_supervised_attempt(
    config: &ServerConfig,
    job: &Job,
    handle: &ProgressHandle,
) -> AttemptResult {
    install_quiet_hook();
    SUPERVISED.with(|s| s.set(true));
    let outcome = catch_unwind(AssertUnwindSafe(|| drive_trial(config, job, handle)));
    SUPERVISED.with(|s| s.set(false));
    match outcome {
        Ok(Ok(result)) => result,
        Ok(Err(failure)) => AttemptResult::Failed(failure),
        // `as_ref`, not `&payload`: the latter would unsize the *Box* into
        // the `dyn Any` and every downcast would miss the real payload.
        Err(payload) => AttemptResult::Failed(classify_panic(payload.as_ref(), handle)),
    }
}

/// Map a caught unwind payload to its typed failure.
fn classify_panic(payload: &(dyn std::any::Any + Send), handle: &ProgressHandle) -> TrialFailure {
    if payload.is::<TrialCancelled>() {
        TrialFailure::Stalled {
            beats: handle.beats(),
        }
    } else if let Some(message) = payload.downcast_ref::<String>() {
        TrialFailure::Panicked {
            message: message.clone(),
        }
    } else if let Some(message) = payload.downcast_ref::<&str>() {
        TrialFailure::Panicked {
            message: (*message).to_string(),
        }
    } else {
        TrialFailure::Panicked {
            message: "<opaque panic payload>".into(),
        }
    }
}

/// Write a trial checkpoint, then prune the trial's store to its
/// `KEPT_SNAPSHOTS` newest files.
fn write_bounded(dir: &Path, time_ns: u64, snap: &Snapshot) -> Result<(), String> {
    store::write_snapshot(dir, time_ns, snap).map_err(|e| e.to_string())?;
    store::retain_newest(dir, KEPT_SNAPSHOTS).map_err(|e| e.to_string())
}

/// Run one attempt on the trial's engine: the exact simulator under the
/// trial observer stack, or the fluid model. The exact golden digest is
/// finalized exactly like an unsupervised digest run; the fluid one is the
/// model's step digest, and its `events` count model steps (chaos and
/// stream observers do not apply to it).
fn drive_trial(
    config: &ServerConfig,
    job: &Job,
    handle: &ProgressHandle,
) -> Result<AttemptResult, TrialFailure> {
    let exp = Experiment::new(job.scenario.clone());
    if job.scenario.fidelity == Fidelity::Fluid {
        return drive(
            config,
            job,
            handle,
            &exp,
            || exp.build_fluid(),
            |engine| (engine.digest(), engine.steps_done()),
        );
    }
    let chaos = ChaosObserver::armed(config.chaos.arm(job.key.seed, job.attempt), handle.clone());
    // Source name is the trial's identity (not the attempt), so a retry's
    // fresh snapshots supersede the dead attempt's in the aggregator.
    let stream = match &config.bus {
        Some(bus) => StreamProbe::armed(
            bus.publisher(format!("trial-{}", job.key.dir_name())),
            config.snapshot_stride,
        ),
        None => StreamProbe::disarmed(),
    };
    let observer: TrialObserver = Tee(
        handle.probe(config.heartbeat_stride),
        Tee(chaos, Tee(stream, GoldenDigest::new())),
    );
    let build = || exp.build_sim(observer.clone());
    drive(config, job, handle, &exp, build, |(sim, _recorder)| {
        // Finalize exactly like `cavenet_core::digest_scenario`: fold the
        // final global and per-node statistics into the stream digest.
        let global = sim.global_stats();
        let per_node: Vec<_> = (0..job.scenario.nodes)
            .map(|i| (sim.node_stats(i), sim.mac_stats(i)))
            .collect();
        let Tee(_probe, Tee(_chaos, Tee(mut stream, mut digest))) = sim.into_observer();
        // Flush the final registry so the feed's tail equals the trial's
        // completed totals.
        stream.finish_and_publish();
        digest.absorb_stats(&global);
        for (i, (ns, ms)) in per_node.iter().enumerate() {
            digest.absorb_node(i, ns, ms);
        }
        (digest.value(), digest.events())
    })
}

/// Drive one attempt on any [`Engine`]: resume from the newest checkpoint
/// in the trial's store that applies (cold when none does), then run in
/// checkpoint-interval slices. Each slice ends with a bounded checkpoint
/// write and one heartbeat; a shutdown is honoured at a slice boundary by
/// checkpointing out. `finish` turns the finished engine into its
/// `(digest, events)`.
fn drive<E: Engine>(
    config: &ServerConfig,
    job: &Job,
    handle: &ProgressHandle,
    exp: &Experiment,
    build: impl FnMut() -> Result<E, ScenarioError>,
    finish: impl FnOnce(E) -> (u64, u64),
) -> Result<AttemptResult, TrialFailure> {
    let checkpoint = |message: String| TrialFailure::Checkpoint { message };
    let dir = config.checkpoint_root.join(job.key.dir_name());
    let (mut engine, lineage) = exp.resume_newest(&dir, build).map_err(|e| match e {
        CheckpointError::Scenario(e) => TrialFailure::Scenario {
            message: e.to_string(),
        },
        e => checkpoint(e.to_string()),
    })?;
    // Beats count work done in this attempt, as the exact engine's
    // in-stream probe does, so they stay monotone within the attempt.
    let mut probe = handle.probe(config.heartbeat_stride);
    let every = config.checkpoint_every.as_nanos().min(u128::from(u64::MAX)) as u64;
    let end = engine.end_ns(exp);
    loop {
        let now = engine.now_ns();
        if now >= end {
            break;
        }
        if handle.signal() == CancelSignal::Shutdown {
            let snap = engine
                .capture_snapshot(exp)
                .map_err(|e| checkpoint(e.to_string()))?;
            write_bounded(&dir, now, &snap).map_err(checkpoint)?;
            return Ok(AttemptResult::Interrupted);
        }
        let target = now.saturating_add(every - now % every).min(end);
        engine.run_until_ns(target);
        let now = engine.now_ns();
        let snap = engine
            .capture_snapshot(exp)
            .map_err(|e| checkpoint(e.to_string()))?;
        write_bounded(&dir, now, &snap).map_err(checkpoint)?;
        probe.beat_at(
            SimTime::from_nanos(now),
            engine.steps().saturating_sub(lineage.resume_step),
        );
    }
    let (digest, events) = finish(engine);
    Ok(AttemptResult::Completed {
        digest,
        events,
        lineage,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cavenet_core::{Protocol, Scenario};

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cavenet_srv_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

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
        config.backoff.base = Duration::from_millis(2);
        config.backoff.cap = Duration::from_millis(10);
        config.poll = Duration::from_millis(5);
        config
    }

    #[test]
    fn clean_campaign_completes_every_trial() {
        let dir = scratch("clean");
        let server = CampaignServer::start(quick_config(dir.clone())).unwrap();
        for seed in [3, 4] {
            server.submit(tiny_scenario(seed)).unwrap();
        }
        let report = server.finish().unwrap();
        assert_eq!(report.trials.len(), 2);
        assert_eq!(report.completed(), 2);
        assert_eq!(report.quarantined(), 0);
        for trial in &report.trials {
            assert!(trial.attempts.is_empty(), "clean run retried: {trial:?}");
            assert_eq!(trial.attempt_count(), 1);
        }
        assert!(report.ledger_path.is_file());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_checkpoint_interval_is_rejected_at_start() {
        let dir = scratch("zero-interval");
        let mut config = quick_config(dir.clone());
        config.checkpoint_every = Duration::ZERO;
        let err = CampaignServer::start(config)
            .err()
            .expect("a zero checkpoint interval must not start a server");
        assert_eq!(err, CheckpointError::ZeroInterval.to_string());
        assert!(!dir.exists(), "a refused start must touch nothing");
    }

    #[test]
    fn node_budget_sheds_load_and_shutdown_refuses_work() {
        let dir = scratch("admission");
        let mut config = quick_config(dir.clone());
        config.workers = 1;
        // The node budget admits exactly one paper-sized trial; queued or
        // running, the second submission must be shed. (Queue-capacity
        // rejection is racy to provoke with live workers, so it is covered
        // by the chaos suite where trials block for long enough.)
        let scenario = tiny_scenario(1);
        config.node_budget = scenario.nodes as u64;
        let server = CampaignServer::start(config).unwrap();
        server.submit(scenario.clone()).unwrap();
        let mut other = scenario.clone();
        other.seed = 2;
        match server.submit(other) {
            Err(AdmissionError::OverBudget {
                requested, budget, ..
            }) => {
                assert_eq!(requested, scenario.nodes as u64);
                assert_eq!(budget, scenario.nodes as u64);
            }
            other => panic!("expected OverBudget, got {other:?}"),
        }
        let report = server.finish().unwrap();
        assert_eq!(report.completed(), 1);

        // After shutdown begins, submission is refused.
        let server = CampaignServer::start(quick_config(dir.clone())).unwrap();
        let report = server.shutdown().unwrap();
        assert!(report.trials.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fluid_trials_run_under_supervision_and_stamp_their_backend() {
        let dir = scratch("fluid");
        let mut scenario = tiny_scenario(9);
        scenario.fidelity = Fidelity::Fluid;
        // Reference digest from an unsupervised straight run.
        let exp = Experiment::new(scenario.clone());
        let (_result, engine) = exp.run_fluid().unwrap();
        let expected = engine.digest();

        let server = CampaignServer::start(quick_config(dir.clone())).unwrap();
        server.submit(scenario.clone()).unwrap();
        let report = server.finish().unwrap();
        assert_eq!(report.completed(), 1);
        let trial = &report.trials[0];
        assert_eq!(trial.backend, "fluid");
        match &trial.outcome {
            TrialOutcome::Completed { digest, events, .. } => {
                assert_eq!(*digest, expected, "supervised fluid digest diverged");
                assert_eq!(*events, engine.steps_done());
            }
            other => panic!("expected completion, got {other:?}"),
        }
        let manifest = trial.manifest("fluid_test").to_json();
        assert_eq!(
            manifest
                .get("backend")
                .and_then(cavenet_telemetry::Json::as_str),
            Some("fluid")
        );
        // Exact trials stamp "exact".
        let server = CampaignServer::start(quick_config(dir.clone())).unwrap();
        server.submit(tiny_scenario(9)).unwrap();
        let report = server.finish().unwrap();
        assert_eq!(report.trials[0].backend, "exact");
        let _ = std::fs::remove_dir_all(&dir);

        // A warm start: a 6 s fluid snapshot already in the trial's store
        // is resumed by the supervised driver and still reproduces the
        // straight run.
        let warm = scratch("fluid-warm");
        let store_dir = warm.join(TrialKey::of(&scenario).dir_name());
        let mut at_6s = exp.build_fluid().unwrap();
        at_6s.run_until_ns(Duration::from_secs(6).as_nanos() as u64);
        let snap = at_6s.capture_snapshot(&exp).unwrap();
        store::write_snapshot(&store_dir, at_6s.now_ns(), &snap).unwrap();
        let server = CampaignServer::start(quick_config(warm.clone())).unwrap();
        server.submit(scenario).unwrap();
        let report = server.finish().unwrap();
        match &report.trials[0].outcome {
            TrialOutcome::Completed {
                digest,
                events,
                lineage,
                replayed: false,
            } => {
                assert!(!lineage.is_cold(), "the 6 s snapshot must apply");
                assert_eq!(lineage.resume_step, 6);
                assert_eq!(*digest, expected, "resumed fluid digest diverged");
                assert_eq!(*events, engine.steps_done());
                assert_eq!(*events, 12);
            }
            other => panic!("expected a resumed completion, got {other:?}"),
        }
        let kept: Vec<u64> = store::list_newest_first(&store_dir)
            .unwrap()
            .iter()
            .filter_map(|p| store::capture_time(p))
            .collect();
        assert_eq!(kept, vec![12_000_000_000, 8_000_000_000]);
        let _ = std::fs::remove_dir_all(&warm);
    }

    #[test]
    fn invalid_scenario_is_refused_at_admission() {
        let dir = scratch("invalid");
        let server = CampaignServer::start(quick_config(dir.clone())).unwrap();
        let mut bad = tiny_scenario(1);
        bad.nodes = 0;
        assert!(matches!(
            server.submit(bad),
            Err(AdmissionError::Invalid(_))
        ));
        let report = server.finish().unwrap();
        assert!(report.trials.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
