//! Periodic checkpoints and resumable runs over the full pipeline, under
//! either fidelity.
//!
//! The `cavenet-checkpoint` crate captures a bare simulator; this module
//! lifts that to a whole [`Experiment`]: a snapshot additionally carries
//! the run's results so far (the shared CBR traffic ledger, or the fluid
//! model's FLUID section) and a fingerprint of the mobility
//! configuration, and its metadata is derived from the [`Scenario`] so a
//! snapshot refuses to restore into a different one.
//!
//! Everything here is written once, against the [`Engine`] trait. It has
//! two impls: the exact `(Simulator, SharedRecorder)` pair that
//! [`Experiment::build_sim`] returns and the [`FluidEngine`] that
//! [`Experiment::build_fluid`] returns. A caller picks a fidelity by
//! picking the builder, and nothing else.
//!
//! Four levels of service:
//!
//! * [`Engine::capture_snapshot`] / [`Engine::restore_snapshot`] —
//!   capture or restore a single point in a run.
//! * [`Experiment::resume_newest`] — restore the newest checkpoint in a
//!   directory that applies, falling back past corrupt, truncated or
//!   foreign files, or build a cold engine when none does. It is the only
//!   such scan: the campaign server resumes its trials through it too.
//! * [`Experiment::run_with_checkpoints`] /
//!   [`Experiment::resume_with_checkpoints`] — drive a run to completion,
//!   cold or from the newest checkpoint, writing a snapshot file every
//!   `every` of *virtual* time.
//! * [`Campaign::run_resumable`] — a multi-seed sweep where every trial
//!   checkpoints into its own subdirectory, so an interrupted sweep
//!   restarts from the last completed (trial, checkpoint) pair instead of
//!   from zero.
//!
//! Resumption is **bit-identical**: a run driven `0 → T` and a run driven
//! `0 → k`, snapshotted, restored in a fresh process and driven `k → T`
//! produce byte-equal event streams (proven by golden digests in the
//! conformance suite). The [`Lineage`] of a resumed run — the container
//! hash of the snapshot it woke from and the engine step it resumed at —
//! is what telemetry stamps into a `RunManifest`.
//!
//! ```no_run
//! use std::path::Path;
//! use std::time::Duration;
//!
//! use cavenet_core::net::NoopObserver;
//! use cavenet_core::{Campaign, CheckpointPlan, Experiment, Fidelity, Protocol, Scenario};
//!
//! # fn main() -> Result<(), cavenet_core::CheckpointError> {
//! let plan = CheckpointPlan { every: Duration::from_secs(60), dir: "ckpts/aodv".into() };
//!
//! // Single run: save a snapshot every 60 simulated seconds.
//! let exp = Experiment::new(Scenario::paper_table1(Protocol::Aodv));
//! let (result, _engine) = exp.run_with_checkpoints(exp.build_sim(NoopObserver)?, &plan)?;
//!
//! // After an interruption: resume from the newest checkpoint that
//! // restores, skipping corrupt, truncated or foreign files, or run cold
//! // if none does.
//! let (resumed, _engine, lineage) =
//!     exp.resume_with_checkpoints(&plan, || exp.build_sim(NoopObserver))?;
//! assert!(lineage.is_cold() || lineage.resume_step > 0);
//! assert_eq!(resumed.total_received(), result.total_received());
//!
//! // The fluid fidelity takes the same path; only the builder differs.
//! let mut fluid = Scenario::paper_table1(Protocol::Aodv);
//! fluid.fidelity = Fidelity::Fluid;
//! let fexp = Experiment::new(fluid);
//! let plan = CheckpointPlan { every: Duration::from_secs(60), dir: "ckpts/fluid".into() };
//! let (_result, _engine, _lineage) = fexp.resume_with_checkpoints(&plan, || fexp.build_fluid())?;
//!
//! // Multi-seed sweep: each trial checkpoints into ckpts/sweep/trial_NNNN/;
//! // re-running the same command resumes every trial from its last
//! // completed checkpoint (completed trials replay in O(restore) work).
//! let sweep = Campaign { base: Scenario::paper_table1(Protocol::Dymo), trials: 32, master_seed: 7 };
//! let outcomes = sweep.run_resumable(Path::new("ckpts/sweep"), Duration::from_secs(60))?;
//! assert_eq!(outcomes.len(), 32);
//! # Ok(())
//! # }
//! ```

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use cavenet_checkpoint::{
    capture_simulator, restore_simulator, section, store, Snapshot, SnapshotError, SnapshotMeta,
};
use cavenet_fluid::FluidEngine;
use cavenet_net::{Fidelity, NoopObserver, SimObserver, SimTime, Simulator, WireWriter};
use cavenet_rng::fnv::fnv64;
use cavenet_stats::Ensemble;
use cavenet_traffic::SharedRecorder;

use crate::{Experiment, ExperimentResult, Scenario, ScenarioError};

/// Why a checkpointed run could not start, save or resume.
#[derive(Debug)]
pub enum CheckpointError {
    /// The scenario itself is invalid.
    Scenario(ScenarioError),
    /// A snapshot failed to encode, decode or apply.
    Snapshot(SnapshotError),
    /// A checkpoint file or directory could not be read or written.
    Io(std::io::Error),
    /// The checkpoint plan's interval is zero — it would snapshot forever
    /// without advancing virtual time.
    ZeroInterval,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Scenario(e) => write!(f, "scenario error: {e}"),
            CheckpointError::Snapshot(e) => write!(f, "snapshot error: {e}"),
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::ZeroInterval => {
                write!(f, "checkpoint interval must be non-zero")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Scenario(e) => Some(e),
            CheckpointError::Snapshot(e) => Some(e),
            CheckpointError::Io(e) => Some(e),
            CheckpointError::ZeroInterval => None,
        }
    }
}

impl From<ScenarioError> for CheckpointError {
    fn from(e: ScenarioError) -> Self {
        CheckpointError::Scenario(e)
    }
}

impl From<SnapshotError> for CheckpointError {
    fn from(e: SnapshotError) -> Self {
        CheckpointError::Snapshot(e)
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Where a resumed run came from. Stamped into run manifests
/// (`parent_snapshot_hash` / `resume_step`); all-zero for a cold run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Lineage {
    /// Container hash of the snapshot the run resumed from (0 = cold).
    pub parent_snapshot_hash: u64,
    /// Engine step at which the resume started: events dispatched (exact)
    /// or model steps (fluid).
    pub resume_step: u64,
}

impl Lineage {
    /// `true` when the run started from scratch rather than a snapshot.
    pub fn is_cold(&self) -> bool {
        self.parent_snapshot_hash == 0
    }
}

/// Where and how often to write checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointPlan {
    /// Virtual-time interval between snapshots (also the resume
    /// granularity). Must be non-zero.
    pub every: Duration,
    /// Directory for `ckpt_<time_ns>.bin` files (created on demand).
    pub dir: PathBuf,
}

/// The snapshot identity of a scenario: scenario hash (over its canonical
/// `Debug` rendering, the same idiom run manifests use), fault-plan hash
/// (over [`FaultPlan::render`](cavenet_net::FaultPlan::render), 0 when
/// unfaulted), seed and node count.
///
/// Execution-layout knobs that provably do not affect results are
/// normalized to their defaults before hashing — today that is
/// `Scenario::shards` (any shard count is bit-identical).
/// This is what lets a snapshot taken under N shards resume under M: the
/// two scenarios share one identity.
///
/// `Scenario::fidelity` is **not** normalized: the exact and fluid
/// backends produce different results, so the two fidelities of one
/// scenario have distinct identities and a snapshot taken under one
/// refuses to resume under the other.
pub fn scenario_identity(s: &Scenario) -> SnapshotMeta {
    let fault_plan_hash = if s.fault_plan.is_empty() {
        0
    } else {
        fnv64(s.fault_plan.render().as_bytes())
    };
    let mut canonical = s.clone();
    canonical.shards = 1;
    SnapshotMeta {
        scenario_hash: fnv64(format!("{canonical:?}").as_bytes()),
        fault_plan_hash,
        seed: s.seed,
        nodes: s.nodes as u64,
        time_ns: 0,
        step: 0,
    }
}

/// Fingerprint of everything that shapes the (regenerated, never
/// serialized) mobility trace.
fn mobility_fingerprint(s: &Scenario) -> u64 {
    fnv64(
        format!(
            "{:?}|{:?}|{}|{}|{}",
            s.mobility, s.mobility_quantum, s.circuit_m, s.nodes, s.seed
        )
        .as_bytes(),
    )
}

/// Add the MOBILITY section: `exp`'s mobility fingerprint.
fn write_mobility(snap: &mut Snapshot, exp: &Experiment) -> Result<(), SnapshotError> {
    let mut w = WireWriter::new();
    w.put_u64(mobility_fingerprint(exp.scenario()));
    snap.insert(section::MOBILITY, w.into_bytes())
}

/// Refuse `snap` unless its MOBILITY section holds `exp`'s fingerprint.
fn check_mobility(snap: &Snapshot, exp: &Experiment) -> Result<(), SnapshotError> {
    let mut r = snap.reader(section::MOBILITY)?;
    let found = r
        .get_u64()
        .and_then(|v| r.finish().map(|()| v))
        .map_err(SnapshotError::wire(section::MOBILITY))?;
    let expected = mobility_fingerprint(exp.scenario());
    if found != expected {
        return Err(SnapshotError::MetaMismatch {
            what: "mobility_fingerprint",
            found,
            expected,
        });
    }
    Ok(())
}

/// One simulation engine running one scenario, as checkpointing,
/// campaigns and the campaign server drive it.
///
/// The two impls are the exact `(Simulator<O>, SharedRecorder)` pair from
/// [`Experiment::build_sim`] and the [`FluidEngine`] from
/// [`Experiment::build_fluid`]. Methods that need the scenario take the
/// [`Experiment`] the engine was built from.
pub trait Engine {
    /// Virtual time reached, in nanoseconds.
    fn now_ns(&self) -> u64;

    /// Virtual time at which `exp`'s run ends, in nanoseconds. Each engine
    /// keeps its own rounding of `Scenario::sim_time`.
    fn end_ns(&self, exp: &Experiment) -> u64;

    /// Work done so far: events dispatched (exact) or model steps (fluid).
    /// A snapshot records it as [`SnapshotMeta::step`].
    fn steps(&self) -> u64;

    /// Advance to virtual time `target_ns`. The fluid engine moves in
    /// whole steps, so it may stop past the target.
    fn run_until_ns(&mut self, target_ns: u64);

    /// Snapshot the run as it stands.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when a section fails to serialize.
    fn capture_snapshot(&self, exp: &Experiment) -> Result<Snapshot, SnapshotError>;

    /// Apply `snap` to this freshly built engine and return the snapshot's
    /// metadata. A failed restore may leave the engine half-applied, so
    /// the caller must discard it.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when the snapshot is malformed or belongs to a
    /// different run: another scenario, seed or fidelity.
    fn restore_snapshot(
        &mut self,
        exp: &Experiment,
        snap: &Snapshot,
    ) -> Result<SnapshotMeta, SnapshotError>;

    /// The experiment's metrics from this (finished or mid-flight) engine.
    fn collect(&self, exp: &Experiment) -> ExperimentResult;
}

/// The exact engine: the simulator's six sections plus the traffic ledger
/// and the mobility fingerprint.
impl<O: SimObserver> Engine for (Simulator<O>, SharedRecorder) {
    fn now_ns(&self) -> u64 {
        self.0.now().as_nanos()
    }

    fn end_ns(&self, exp: &Experiment) -> u64 {
        SimTime::from_secs_f64(exp.scenario().sim_time.as_secs_f64()).as_nanos()
    }

    fn steps(&self) -> u64 {
        self.0.global_stats().events_processed
    }

    fn run_until_ns(&mut self, target_ns: u64) {
        self.0.run_until(SimTime::from_nanos(target_ns));
    }

    fn capture_snapshot(&self, exp: &Experiment) -> Result<Snapshot, SnapshotError> {
        exp.snapshot_now(&self.0, &self.1)
    }

    fn restore_snapshot(
        &mut self,
        exp: &Experiment,
        snap: &Snapshot,
    ) -> Result<SnapshotMeta, SnapshotError> {
        check_mobility(snap, exp)?;
        let meta = restore_simulator(&mut self.0, snap, &scenario_identity(exp.scenario()))?;
        let mut r = snap.reader(section::TRAFFIC)?;
        self.1
            .borrow_mut()
            .restore(&mut r)
            .and_then(|()| r.finish())
            .map_err(SnapshotError::wire(section::TRAFFIC))?;
        Ok(meta)
    }

    fn collect(&self, exp: &Experiment) -> ExperimentResult {
        exp.collect(&self.0, &self.1)
    }
}

/// The fluid engine: META (scenario identity, which includes the
/// fidelity), the engine's FLUID section and the mobility fingerprint. A
/// snapshot taken under the exact fidelity is refused: its META hash
/// differs and it has no FLUID section.
impl Engine for FluidEngine {
    fn now_ns(&self) -> u64 {
        FluidEngine::now_ns(self)
    }

    fn end_ns(&self, exp: &Experiment) -> u64 {
        exp.scenario().sim_time.as_nanos() as u64
    }

    fn steps(&self) -> u64 {
        self.steps_done()
    }

    fn run_until_ns(&mut self, target_ns: u64) {
        FluidEngine::run_until_ns(self, target_ns);
    }

    fn capture_snapshot(&self, exp: &Experiment) -> Result<Snapshot, SnapshotError> {
        let mut identity = scenario_identity(exp.scenario());
        identity.time_ns = FluidEngine::now_ns(self);
        identity.step = self.steps_done();
        let mut snap = Snapshot::new();
        let mut w = WireWriter::new();
        identity.encode(&mut w);
        snap.insert(section::META, w.into_bytes())?;
        let mut w = WireWriter::new();
        self.capture(&mut w);
        snap.insert(section::FLUID, w.into_bytes())?;
        write_mobility(&mut snap, exp)?;
        Ok(snap)
    }

    fn restore_snapshot(
        &mut self,
        exp: &Experiment,
        snap: &Snapshot,
    ) -> Result<SnapshotMeta, SnapshotError> {
        check_mobility(snap, exp)?;
        let meta = snap.meta()?;
        meta.check_same_run(&scenario_identity(exp.scenario()))?;
        let mut r = snap.reader(section::FLUID)?;
        self.restore(&mut r)
            .and_then(|()| r.finish())
            .map_err(SnapshotError::wire(section::FLUID))?;
        Ok(meta)
    }

    fn collect(&self, exp: &Experiment) -> ExperimentResult {
        exp.collect_fluid(self)
    }
}

impl CheckpointPlan {
    /// [`every`](Self::every) in nanoseconds, refusing zero.
    fn every_ns(&self) -> Result<u64, CheckpointError> {
        match self.every.as_nanos().min(u128::from(u64::MAX)) as u64 {
            0 => Err(CheckpointError::ZeroInterval),
            every => Ok(every),
        }
    }
}

impl Experiment {
    /// Snapshot a mid-flight exact run: the simulator's six sections plus
    /// the traffic ledger and the mobility fingerprint. This is the exact
    /// engine's [`Engine::capture_snapshot`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when any section fails to serialize.
    pub fn snapshot_now<O: SimObserver>(
        &self,
        sim: &Simulator<O>,
        recorder: &SharedRecorder,
    ) -> Result<Snapshot, SnapshotError> {
        let mut snap = capture_simulator(sim, scenario_identity(self.scenario()))?;
        let mut w = WireWriter::new();
        recorder.borrow().capture(&mut w);
        snap.insert(section::TRAFFIC, w.into_bytes())?;
        write_mobility(&mut snap, self)?;
        Ok(snap)
    }

    /// Build a fresh simulator for this scenario and restore `snap` into
    /// it, returning the simulator ready to continue from the snapshot's
    /// capture point, its traffic recorder, and the snapshot metadata.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Scenario`] when the scenario cannot build;
    /// [`CheckpointError::Snapshot`] when the snapshot is malformed or
    /// belongs to a different run.
    pub fn resume_from_snapshot<O: SimObserver>(
        &self,
        observer: O,
        snap: &Snapshot,
    ) -> Result<(Simulator<O>, SharedRecorder, SnapshotMeta), CheckpointError> {
        let mut engine = self.build_sim(observer)?;
        let meta = engine.restore_snapshot(self, snap)?;
        let (sim, recorder) = engine;
        Ok((sim, recorder, meta))
    }

    /// Restore the newest checkpoint in `dir` that applies, or start cold
    /// when none does, and return the engine with the [`Lineage`] actually
    /// used ([`Lineage::is_cold`] tells whether any checkpoint applied).
    ///
    /// Files are tried newest first. One that cannot be read, fails
    /// container verification (truncation, a flipped byte) or belongs to
    /// another run is skipped, and the next older one is tried. `build`
    /// makes a pristine engine for every restore attempt and for the cold
    /// start, because a failed restore may leave an engine half-applied. A
    /// missing `dir` is an empty store.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when `dir` cannot be listed, and
    /// [`CheckpointError::Scenario`] when `build` fails.
    pub fn resume_newest<E: Engine>(
        &self,
        dir: &Path,
        mut build: impl FnMut() -> Result<E, ScenarioError>,
    ) -> Result<(E, Lineage), CheckpointError> {
        for path in store::list_newest_first(dir)? {
            let Ok(bytes) = fs::read(&path) else { continue };
            let Ok(snap) = Snapshot::from_bytes(&bytes) else {
                continue;
            };
            let mut engine = build()?;
            if let Ok(meta) = engine.restore_snapshot(self, &snap) {
                let lineage = Lineage {
                    parent_snapshot_hash: snap.container_hash(),
                    resume_step: meta.step,
                };
                return Ok((engine, lineage));
            }
        }
        Ok((build()?, Lineage::default()))
    }

    /// Drive `engine` from its current clock to the scenario end, writing
    /// a snapshot file into `dir` after every `every` nanoseconds of
    /// virtual time and at the end. The fluid engine moves in whole steps,
    /// so when `every` is not a multiple of its step a snapshot lands on
    /// the first step boundary past each target.
    fn checkpoint_loop<E: Engine>(
        &self,
        engine: &mut E,
        every: u64,
        dir: &Path,
    ) -> Result<(), CheckpointError> {
        let end = engine.end_ns(self);
        let mut now = engine.now_ns();
        while now < end {
            let target = now.saturating_add(every - now % every).min(end);
            engine.run_until_ns(target);
            now = engine.now_ns();
            let snap = engine.capture_snapshot(self)?;
            store::write_snapshot(dir, now, &snap)?;
        }
        Ok(())
    }

    /// Run `engine` to completion, checkpointing periodically into
    /// `plan.dir` (created if needed) and keeping every file. The final
    /// state is also checkpointed, so a completed run resumes in
    /// O(restore) work.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::ZeroInterval`] when `plan.every` is zero,
    /// checked before anything is written; otherwise [`CheckpointError`]
    /// on snapshot or filesystem failure.
    pub fn run_with_checkpoints<E: Engine>(
        &self,
        mut engine: E,
        plan: &CheckpointPlan,
    ) -> Result<(ExperimentResult, E), CheckpointError> {
        let every = plan.every_ns()?;
        self.checkpoint_loop(&mut engine, every, &plan.dir)?;
        Ok((engine.collect(self), engine))
    }

    /// Resume from the newest checkpoint in `plan.dir` that applies, or
    /// start cold (see [`resume_newest`](Self::resume_newest)), then
    /// continue to completion, still checkpointing periodically.
    ///
    /// Returns the experiment result, the finished engine and the
    /// [`Lineage`] actually used.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::ZeroInterval`] when `plan.every` is zero,
    /// checked before anything is built or written; otherwise
    /// [`CheckpointError`] on scenario, snapshot or filesystem failure (a
    /// corrupt checkpoint *file* is not an error — it is skipped).
    pub fn resume_with_checkpoints<E: Engine>(
        &self,
        plan: &CheckpointPlan,
        build: impl FnMut() -> Result<E, ScenarioError>,
    ) -> Result<(ExperimentResult, E, Lineage), CheckpointError> {
        let every = plan.every_ns()?;
        let (mut engine, lineage) = self.resume_newest(&plan.dir, build)?;
        self.checkpoint_loop(&mut engine, every, &plan.dir)?;
        Ok((engine.collect(self), engine, lineage))
    }
}

/// A resumable multi-seed sweep: `trials` repetitions of `base` with
/// seeds derived from `master_seed` exactly like
/// [`Ensemble`](cavenet_stats::Ensemble) derives them.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// The scenario every trial runs (its `seed` field is overridden).
    pub base: Scenario,
    /// Number of seeded repetitions.
    pub trials: usize,
    /// Master seed the per-trial seeds derive from.
    pub master_seed: u64,
}

impl Campaign {
    /// The scenario of trial `i` (0-based): `base` with the derived seed.
    pub fn trial_scenario(&self, i: usize) -> Scenario {
        let mut s = self.base.clone();
        s.seed = Ensemble::new(self.trials.max(1), self.master_seed).trial_seed(i);
        s
    }

    /// Run (or resume) every trial, checkpointing each into
    /// `dir/trial_<i>/` every `every` of virtual time. Trials that
    /// already completed in a previous invocation resume from their final
    /// checkpoint and finish in O(restore) work, so an interrupted sweep
    /// restarts from the last completed (trial, checkpoint) pair.
    ///
    /// Returns one `(result, lineage)` per trial, in trial order.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] from the first failing trial;
    /// [`CheckpointError::ZeroInterval`] when `every` is zero, before any
    /// trial directory is created.
    pub fn run_resumable(
        &self,
        dir: &Path,
        every: Duration,
    ) -> Result<Vec<(ExperimentResult, Lineage)>, CheckpointError> {
        (0..self.trials.max(1))
            .map(|i| {
                let plan = CheckpointPlan {
                    every,
                    dir: dir.join(format!("trial_{i:04}")),
                };
                let exp = Experiment::new(self.trial_scenario(i));
                match exp.scenario().fidelity {
                    Fidelity::Fluid => exp
                        .resume_with_checkpoints(&plan, || exp.build_fluid())
                        .map(|(result, _engine, lineage)| (result, lineage)),
                    _ => exp
                        .resume_with_checkpoints(&plan, || exp.build_sim(NoopObserver))
                        .map(|(result, _engine, lineage)| (result, lineage)),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Protocol;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cavenet_ckpt_{}_{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
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

    #[test]
    fn checkpointed_run_matches_plain_run() {
        let dir = scratch_dir("plain");
        let exp = Experiment::new(tiny_scenario(3));
        let plain = exp.run().unwrap();
        let plan = CheckpointPlan {
            every: Duration::from_secs(4),
            dir: dir.clone(),
        };
        let (ckpt, _engine) = exp
            .run_with_checkpoints(exp.build_sim(NoopObserver).unwrap(), &plan)
            .unwrap();
        assert_eq!(plain.global, ckpt.global);
        assert_eq!(plain.total_received(), ckpt.total_received());
        // Snapshots at 4 s, 8 s, 12 s.
        assert_eq!(store::list_newest_first(&dir).unwrap().len(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_falls_back_past_corrupt_checkpoints() {
        let dir = scratch_dir("corrupt");
        let exp = Experiment::new(tiny_scenario(5));
        let plain = exp.run().unwrap();
        let plan = CheckpointPlan {
            every: Duration::from_secs(4),
            dir: dir.clone(),
        };
        exp.run_with_checkpoints(exp.build_sim(NoopObserver).unwrap(), &plan)
            .unwrap();
        // Vandalize the two newest checkpoints differently: one truncated,
        // one bit-flipped.
        let files = store::list_newest_first(&dir).unwrap();
        let newest = fs::read(&files[0]).unwrap();
        fs::write(&files[0], &newest[..newest.len() / 2]).unwrap();
        let mut second = fs::read(&files[1]).unwrap();
        let mid = second.len() / 2;
        second[mid] ^= 0xFF;
        fs::write(&files[1], &second).unwrap();

        let (result, _engine, lineage) = exp
            .resume_with_checkpoints(&plan, || exp.build_sim(NoopObserver))
            .unwrap();
        assert!(!lineage.is_cold(), "oldest checkpoint must still restore");
        assert_eq!(result.global, plain.global);
        assert_eq!(result.total_received(), plain.total_received());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_with_empty_dir_runs_cold() {
        let dir = scratch_dir("cold");
        let exp = Experiment::new(tiny_scenario(7));
        let plain = exp.run().unwrap();
        let plan = CheckpointPlan {
            every: Duration::from_secs(6),
            dir: dir.clone(),
        };
        let (result, _engine, lineage) = exp
            .resume_with_checkpoints(&plan, || exp.build_sim(NoopObserver))
            .unwrap();
        assert!(lineage.is_cold());
        assert_eq!(result.global, plain.global);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_interval_is_refused_before_any_work() {
        let dir = scratch_dir("zero");
        let plan = CheckpointPlan {
            every: Duration::ZERO,
            dir: dir.clone(),
        };
        let refused = |e: CheckpointError| matches!(e, CheckpointError::ZeroInterval);
        let exp = Experiment::new(tiny_scenario(3));
        let mut fluid = tiny_scenario(3);
        fluid.fidelity = Fidelity::Fluid;
        let fexp = Experiment::new(fluid);
        let exact = exp.build_sim(NoopObserver).unwrap();
        assert!(refused(
            exp.run_with_checkpoints(exact, &plan).err().unwrap()
        ));
        let engine = fexp.build_fluid().unwrap();
        assert!(refused(
            fexp.run_with_checkpoints(engine, &plan).err().unwrap()
        ));
        let resumed = exp.resume_with_checkpoints(&plan, || exp.build_sim(NoopObserver));
        assert!(refused(resumed.err().unwrap()));
        let resumed = fexp.resume_with_checkpoints(&plan, || fexp.build_fluid());
        assert!(refused(resumed.err().unwrap()));
        let campaign = Campaign {
            base: tiny_scenario(0),
            trials: 2,
            master_seed: 42,
        };
        assert!(refused(
            campaign.run_resumable(&dir, Duration::ZERO).err().unwrap()
        ));
        assert!(!dir.exists(), "a refused run must leave no directory");
    }

    #[test]
    fn foreign_snapshot_is_rejected_not_applied() {
        let exp_a = Experiment::new(tiny_scenario(1));
        let exp_b = Experiment::new(tiny_scenario(2));
        let (sim, rec) = exp_a.build_sim(NoopObserver).unwrap();
        let snap = exp_a.snapshot_now(&sim, &rec).unwrap();
        let err = exp_b.resume_from_snapshot(NoopObserver, &snap).unwrap_err();
        assert!(
            matches!(
                err,
                CheckpointError::Snapshot(SnapshotError::MetaMismatch { .. })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn fluid_checkpointed_run_matches_plain_run() {
        let dir = scratch_dir("fluid_plain");
        let mut s = tiny_scenario(3);
        s.fidelity = Fidelity::Fluid;
        let exp = Experiment::new(s);
        let (_, plain_engine) = exp.run_fluid().unwrap();
        let plan = CheckpointPlan {
            every: Duration::from_secs(4),
            dir: dir.clone(),
        };
        let (ckpt, engine) = exp
            .run_with_checkpoints(exp.build_fluid().unwrap(), &plan)
            .unwrap();
        assert_eq!(engine.digest(), plain_engine.digest());
        assert_eq!(ckpt.total_received(), exp.run().unwrap().total_received());
        assert_eq!(store::list_newest_first(&dir).unwrap().len(), 3);

        // And a resume from those checkpoints reproduces the same digest.
        let (resumed, engine2, lineage) = exp
            .resume_with_checkpoints(&plan, || exp.build_fluid())
            .unwrap();
        assert!(!lineage.is_cold());
        assert_eq!(engine2.digest(), plain_engine.digest());
        assert_eq!(resumed.total_received(), ckpt.total_received());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fluid_snapshot_refuses_the_exact_fidelity_and_vice_versa() {
        let mut fluid_s = tiny_scenario(9);
        fluid_s.fidelity = Fidelity::Fluid;
        let fluid_exp = Experiment::new(fluid_s.clone());
        let engine = fluid_exp.build_fluid().unwrap();
        let fluid_snap = engine.capture_snapshot(&fluid_exp).unwrap();

        // The same scenario under the exact fidelity must reject it.
        let mut exact_s = fluid_s;
        exact_s.fidelity = Fidelity::Exact;
        let exact_exp = Experiment::new(exact_s);
        let err = exact_exp
            .resume_from_snapshot(NoopObserver, &fluid_snap)
            .unwrap_err();
        assert!(
            matches!(
                err,
                CheckpointError::Snapshot(SnapshotError::MetaMismatch { .. })
            ),
            "{err:?}"
        );

        // And an exact snapshot must not restore into a fluid engine.
        let (sim, rec) = exact_exp.build_sim(NoopObserver).unwrap();
        let exact_snap = exact_exp.snapshot_now(&sim, &rec).unwrap();
        let err = fluid_exp
            .build_fluid()
            .unwrap()
            .restore_snapshot(&fluid_exp, &exact_snap)
            .unwrap_err();
        assert!(matches!(err, SnapshotError::MetaMismatch { .. }), "{err:?}");
    }

    #[test]
    fn fluid_campaign_resumes() {
        let dir = scratch_dir("fluid_campaign");
        let mut base = tiny_scenario(0);
        base.fidelity = Fidelity::Fluid;
        let campaign = Campaign {
            base,
            trials: 2,
            master_seed: 42,
        };
        let first = campaign
            .run_resumable(&dir, Duration::from_secs(4))
            .unwrap();
        assert!(first.iter().all(|(_, l)| l.is_cold()));
        let second = campaign
            .run_resumable(&dir, Duration::from_secs(4))
            .unwrap();
        for ((a, _), (b, lineage)) in first.iter().zip(&second) {
            assert!(!lineage.is_cold(), "second pass must resume");
            assert_eq!(a.total_received(), b.total_received());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn campaign_resumes_from_completed_trials() {
        let dir = scratch_dir("campaign");
        let mut base = tiny_scenario(0);
        base.sim_time = Duration::from_secs(8);
        base.traffic.cbr.stop = Duration::from_secs(6);
        let campaign = Campaign {
            base,
            trials: 3,
            master_seed: 42,
        };
        let first = campaign
            .run_resumable(&dir, Duration::from_secs(4))
            .unwrap();
        assert_eq!(first.len(), 3);
        assert!(first.iter().all(|(_, l)| l.is_cold()));
        // Seeds must differ across trials.
        assert_ne!(
            campaign.trial_scenario(0).seed,
            campaign.trial_scenario(1).seed
        );

        let second = campaign
            .run_resumable(&dir, Duration::from_secs(4))
            .unwrap();
        for ((a, _), (b, lineage)) in first.iter().zip(&second) {
            assert!(!lineage.is_cold(), "second pass must resume");
            assert_eq!(a.global, b.global);
            assert_eq!(a.total_received(), b.total_received());
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
