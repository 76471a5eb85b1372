//! Periodic checkpoints and resumable runs over the full pipeline.
//!
//! The `cavenet-checkpoint` crate captures a bare simulator; this module
//! lifts that to a whole [`Experiment`]: the snapshot additionally carries
//! the shared CBR traffic ledger (the metrics source) and a fingerprint of
//! the mobility configuration, and its metadata is derived from the
//! [`Scenario`] so a snapshot refuses to restore into a different one.
//!
//! Three levels of service:
//!
//! * [`Experiment::snapshot_now`] / [`Experiment::resume_from_snapshot`] —
//!   capture or restore a single point in a run.
//! * [`Experiment::run_with_checkpoints`] /
//!   [`Experiment::resume_with_checkpoints`] — drive a run to completion
//!   writing a snapshot file every `every` of *virtual* time, and pick a
//!   run back up from the newest readable checkpoint in a directory
//!   (silently falling back past corrupt or foreign files).
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

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use cavenet_checkpoint::{
    capture_simulator, restore_simulator, section, store, Snapshot, SnapshotError, SnapshotMeta,
};
use cavenet_fluid::FluidEngine;
use cavenet_net::{Fidelity, SimObserver, SimTime, Simulator, WireWriter};
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
    /// Engine step (events dispatched) at which the resume started.
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

impl Experiment {
    /// Snapshot a mid-flight run: the simulator's six sections plus the
    /// traffic ledger and the mobility fingerprint.
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
        let mut w = WireWriter::new();
        w.put_u64(mobility_fingerprint(self.scenario()));
        snap.insert(section::MOBILITY, w.into_bytes())?;
        Ok(snap)
    }

    /// Apply `snap` to a freshly built simulator/recorder pair.
    fn restore_into<O: SimObserver>(
        &self,
        sim: &mut Simulator<O>,
        recorder: &SharedRecorder,
        snap: &Snapshot,
    ) -> Result<SnapshotMeta, SnapshotError> {
        let mut r = snap.reader(section::MOBILITY)?;
        let found = r
            .get_u64()
            .and_then(|v| r.finish().map(|()| v))
            .map_err(SnapshotError::wire(section::MOBILITY))?;
        let expected = mobility_fingerprint(self.scenario());
        if found != expected {
            return Err(SnapshotError::MetaMismatch {
                what: "mobility_fingerprint",
                found,
                expected,
            });
        }
        let meta = restore_simulator(sim, snap, &scenario_identity(self.scenario()))?;
        let mut r = snap.reader(section::TRAFFIC)?;
        recorder
            .borrow_mut()
            .restore(&mut r)
            .and_then(|()| r.finish())
            .map_err(SnapshotError::wire(section::TRAFFIC))?;
        Ok(meta)
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
        let (mut sim, recorder) = self.build_sim(observer)?;
        let meta = self.restore_into(&mut sim, &recorder, snap)?;
        Ok((sim, recorder, meta))
    }

    /// Drive `sim` from its current clock to the scenario end, writing a
    /// snapshot file after every `plan.every` of virtual time and at the
    /// end.
    fn checkpoint_loop<O: SimObserver>(
        &self,
        sim: &mut Simulator<O>,
        recorder: &SharedRecorder,
        plan: &CheckpointPlan,
    ) -> Result<(), CheckpointError> {
        let every = plan.every.as_nanos().min(u128::from(u64::MAX)) as u64;
        if every == 0 {
            return Err(CheckpointError::ZeroInterval);
        }
        let end = SimTime::from_secs_f64(self.scenario().sim_time.as_secs_f64()).as_nanos();
        let mut now = sim.now().as_nanos();
        while now < end {
            let target = now.saturating_add(every - now % every).min(end);
            sim.run_until(SimTime::from_nanos(target));
            now = sim.now().as_nanos();
            let snap = self.snapshot_now(sim, recorder)?;
            store::write_snapshot(&plan.dir, now, &snap)?;
        }
        Ok(())
    }

    /// Run the scenario to completion, checkpointing periodically into
    /// `plan.dir` (created if needed). The final state is also
    /// checkpointed, so a completed run resumes in O(restore) work.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on scenario, snapshot or filesystem failure,
    /// or [`CheckpointError::ZeroInterval`] when `plan.every` is zero.
    pub fn run_with_checkpoints<O: SimObserver>(
        &self,
        observer: O,
        plan: &CheckpointPlan,
    ) -> Result<(ExperimentResult, Simulator<O>), CheckpointError> {
        fs::create_dir_all(&plan.dir)?;
        let (mut sim, recorder) = self.build_sim(observer)?;
        self.checkpoint_loop(&mut sim, &recorder, plan)?;
        Ok((self.collect(&sim, &recorder), sim))
    }

    /// Resume the scenario from the newest readable checkpoint in
    /// `plan.dir` — falling back, snapshot by snapshot, past corrupt,
    /// truncated or foreign files — or start cold when none works. The run
    /// then continues to completion, still checkpointing periodically.
    ///
    /// Returns the experiment result, the finished simulator and the
    /// [`Lineage`] actually used ([`Lineage::is_cold`] tells whether any
    /// checkpoint was usable). The observer must be `Clone` because a
    /// restore that fails mid-way may have half-applied state: every
    /// attempt (and the cold fallback) starts from a pristine simulator
    /// built around a fresh clone of `observer`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on scenario, snapshot or filesystem failure
    /// (a corrupt checkpoint *file* is not an error — it is skipped), or
    /// [`CheckpointError::ZeroInterval`] when `plan.every` is zero.
    pub fn resume_with_checkpoints<O: SimObserver + Clone>(
        &self,
        observer: O,
        plan: &CheckpointPlan,
    ) -> Result<(ExperimentResult, Simulator<O>, Lineage), CheckpointError> {
        fs::create_dir_all(&plan.dir)?;
        let mut lineage = Lineage::default();
        let mut restored: Option<(Simulator<O>, SharedRecorder)> = None;
        for path in store::list_newest_first(&plan.dir)? {
            let Ok(bytes) = fs::read(&path) else { continue };
            let Ok(snap) = Snapshot::from_bytes(&bytes) else {
                continue;
            };
            let (mut sim, recorder) = self.build_sim(observer.clone())?;
            if let Ok(meta) = self.restore_into(&mut sim, &recorder, &snap) {
                lineage = Lineage {
                    parent_snapshot_hash: snap.container_hash(),
                    resume_step: meta.step,
                };
                restored = Some((sim, recorder));
                break;
            }
        }
        let (mut sim, recorder) = match restored {
            Some(pair) => pair,
            None => self.build_sim(observer)?,
        };
        self.checkpoint_loop(&mut sim, &recorder, plan)?;
        Ok((self.collect(&sim, &recorder), sim, lineage))
    }

    /// Snapshot a mid-flight fluid run: META (scenario identity, which
    /// includes the fidelity), the engine's FLUID section and the mobility
    /// fingerprint — the fluid counterpart of
    /// [`snapshot_now`](Self::snapshot_now).
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when a section fails to serialize.
    pub fn snapshot_fluid(&self, engine: &FluidEngine) -> Result<Snapshot, SnapshotError> {
        let mut identity = scenario_identity(self.scenario());
        identity.time_ns = engine.now_ns();
        identity.step = engine.steps_done();
        let mut snap = Snapshot::new();
        let mut w = WireWriter::new();
        identity.encode(&mut w);
        snap.insert(section::META, w.into_bytes())?;
        let mut w = WireWriter::new();
        engine.capture(&mut w);
        snap.insert(section::FLUID, w.into_bytes())?;
        let mut w = WireWriter::new();
        w.put_u64(mobility_fingerprint(self.scenario()));
        snap.insert(section::MOBILITY, w.into_bytes())?;
        Ok(snap)
    }

    /// Build a fresh fluid engine for this scenario and restore `snap`
    /// into it. A snapshot taken under the exact fidelity is refused —
    /// its META hash differs (fidelity is identity-relevant) and it has no
    /// FLUID section.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Scenario`] when the scenario cannot build (or is
    /// not a fluid scenario); [`CheckpointError::Snapshot`] when the
    /// snapshot is malformed or belongs to a different run.
    pub fn resume_fluid_from_snapshot(
        &self,
        snap: &Snapshot,
    ) -> Result<(FluidEngine, SnapshotMeta), CheckpointError> {
        let mut engine = self.build_fluid()?;
        let mut r = snap.reader(section::MOBILITY)?;
        let found = r
            .get_u64()
            .and_then(|v| r.finish().map(|()| v))
            .map_err(SnapshotError::wire(section::MOBILITY))?;
        let expected = mobility_fingerprint(self.scenario());
        if found != expected {
            return Err(SnapshotError::MetaMismatch {
                what: "mobility_fingerprint",
                found,
                expected,
            }
            .into());
        }
        let meta = snap.meta()?;
        meta.check_same_run(&scenario_identity(self.scenario()))?;
        let mut r = snap.reader(section::FLUID)?;
        engine
            .restore(&mut r)
            .and_then(|()| r.finish())
            .map_err(SnapshotError::wire(section::FLUID))?;
        Ok((engine, meta))
    }

    /// Drive `engine` to the scenario end, snapshotting every `plan.every`
    /// of virtual time. Fluid time moves in whole model steps, so when
    /// `every` is not a multiple of the step a snapshot lands on the first
    /// boundary past each target.
    fn fluid_checkpoint_loop(
        &self,
        engine: &mut FluidEngine,
        plan: &CheckpointPlan,
    ) -> Result<(), CheckpointError> {
        let every = plan.every.as_nanos().min(u128::from(u64::MAX)) as u64;
        if every == 0 {
            return Err(CheckpointError::ZeroInterval);
        }
        let end = self.scenario().sim_time.as_nanos() as u64;
        let mut now = engine.now_ns();
        while now < end {
            let target = now.saturating_add(every - now % every).min(end);
            engine.run_until_ns(target);
            now = engine.now_ns();
            let snap = self.snapshot_fluid(engine)?;
            store::write_snapshot(&plan.dir, now, &snap)?;
        }
        Ok(())
    }

    /// [`run_with_checkpoints`](Self::run_with_checkpoints) for the fluid
    /// fidelity: run to completion, snapshotting periodically into
    /// `plan.dir`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on scenario, snapshot or filesystem failure, or
    /// [`CheckpointError::ZeroInterval`] when `plan.every` is zero.
    pub fn run_with_checkpoints_fluid(
        &self,
        plan: &CheckpointPlan,
    ) -> Result<(ExperimentResult, FluidEngine), CheckpointError> {
        fs::create_dir_all(&plan.dir)?;
        let mut engine = self.build_fluid()?;
        self.fluid_checkpoint_loop(&mut engine, plan)?;
        Ok((self.collect_fluid(&engine), engine))
    }

    /// [`resume_with_checkpoints`](Self::resume_with_checkpoints) for the
    /// fluid fidelity: resume from the newest readable checkpoint
    /// (falling back past corrupt or foreign files), then continue to
    /// completion, still checkpointing.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on scenario, snapshot or filesystem failure, or
    /// [`CheckpointError::ZeroInterval`] when `plan.every` is zero.
    pub fn resume_with_checkpoints_fluid(
        &self,
        plan: &CheckpointPlan,
    ) -> Result<(ExperimentResult, FluidEngine, Lineage), CheckpointError> {
        fs::create_dir_all(&plan.dir)?;
        let mut lineage = Lineage::default();
        let mut restored: Option<FluidEngine> = None;
        for path in store::list_newest_first(&plan.dir)? {
            let Ok(bytes) = fs::read(&path) else { continue };
            let Ok(snap) = Snapshot::from_bytes(&bytes) else {
                continue;
            };
            if let Ok((engine, meta)) = self.resume_fluid_from_snapshot(&snap) {
                lineage = Lineage {
                    parent_snapshot_hash: snap.container_hash(),
                    resume_step: meta.step,
                };
                restored = Some(engine);
                break;
            }
        }
        let mut engine = match restored {
            Some(e) => e,
            None => self.build_fluid()?,
        };
        self.fluid_checkpoint_loop(&mut engine, plan)?;
        Ok((self.collect_fluid(&engine), engine, lineage))
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
    /// [`CheckpointError`] from the first failing trial.
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
                if exp.scenario().fidelity == Fidelity::Fluid {
                    exp.resume_with_checkpoints_fluid(&plan)
                        .map(|(result, _engine, lineage)| (result, lineage))
                } else {
                    exp.resume_with_checkpoints(cavenet_net::NoopObserver, &plan)
                        .map(|(result, _sim, lineage)| (result, lineage))
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
        let (ckpt, _sim) = exp
            .run_with_checkpoints(cavenet_net::NoopObserver, &plan)
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
        exp.run_with_checkpoints(cavenet_net::NoopObserver, &plan)
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

        let (result, _sim, lineage) = exp
            .resume_with_checkpoints(cavenet_net::NoopObserver, &plan)
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
        let (result, _sim, lineage) = exp
            .resume_with_checkpoints(cavenet_net::NoopObserver, &plan)
            .unwrap();
        assert!(lineage.is_cold());
        assert_eq!(result.global, plain.global);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_snapshot_is_rejected_not_applied() {
        let exp_a = Experiment::new(tiny_scenario(1));
        let exp_b = Experiment::new(tiny_scenario(2));
        let (sim, rec) = exp_a.build_sim(cavenet_net::NoopObserver).unwrap();
        let snap = exp_a.snapshot_now(&sim, &rec).unwrap();
        let err = exp_b
            .resume_from_snapshot(cavenet_net::NoopObserver, &snap)
            .unwrap_err();
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
        let (ckpt, engine) = exp.run_with_checkpoints_fluid(&plan).unwrap();
        assert_eq!(engine.digest(), plain_engine.digest());
        assert_eq!(ckpt.total_received(), exp.run().unwrap().total_received());
        assert_eq!(store::list_newest_first(&dir).unwrap().len(), 3);

        // And a resume from those checkpoints reproduces the same digest.
        let (resumed, engine2, lineage) = exp.resume_with_checkpoints_fluid(&plan).unwrap();
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
        let fluid_snap = fluid_exp.snapshot_fluid(&engine).unwrap();

        // The same scenario under the exact fidelity must reject it.
        let mut exact_s = fluid_s;
        exact_s.fidelity = Fidelity::Exact;
        let exact_exp = Experiment::new(exact_s);
        let err = exact_exp
            .resume_from_snapshot(cavenet_net::NoopObserver, &fluid_snap)
            .unwrap_err();
        assert!(
            matches!(
                err,
                CheckpointError::Snapshot(SnapshotError::MetaMismatch { .. })
            ),
            "{err:?}"
        );

        // And an exact snapshot must not restore into a fluid engine.
        let (sim, rec) = exact_exp.build_sim(cavenet_net::NoopObserver).unwrap();
        let exact_snap = exact_exp.snapshot_now(&sim, &rec).unwrap();
        let err = fluid_exp
            .resume_fluid_from_snapshot(&exact_snap)
            .unwrap_err();
        assert!(
            matches!(
                err,
                CheckpointError::Snapshot(SnapshotError::MetaMismatch { .. })
            ),
            "{err:?}"
        );
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
