//! Run manifests: the provenance block stamped into every bench report.
//!
//! A manifest answers "what exactly produced these numbers?": a hash of
//! the scenario, a hash of the fault plan, the seed, the crate versions
//! compiled in and the wall-clock timings of the run's tiers. Two reports
//! with equal manifests came from the same inputs, so their payloads are
//! directly comparable.

use crate::json::Json;

/// Version stamped into every manifest as `"manifest_version"`.
pub const MANIFEST_SCHEMA_VERSION: u64 = 1;

/// 64-bit FNV-1a over a byte string — the workspace's shared
/// implementation ([`cavenet_rng::fnv`]), the same constants the
/// conformance testkit's golden digests and the checkpoint section hashes
/// use, so hashes are stable across platforms and subsystems.
pub fn fnv64(bytes: &[u8]) -> u64 {
    cavenet_rng::fnv::fnv64(bytes)
}

/// Calibrated accuracy bounds of a reduced-fidelity backend, measured
/// against the exact engine on the fidelity-report fixture classes.
///
/// Stamped next to [`RunManifest::backend`] so a consumer reading a
/// fluid-backend report knows how far its numbers may sit from an exact
/// run of the same scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorEnvelope {
    /// Largest absolute packet-delivery-ratio error (in PDR units, 0..=1)
    /// observed across the calibration classes.
    pub max_abs_pdr_error: f64,
    /// Largest relative goodput error (fraction of the exact goodput)
    /// observed across the calibration classes.
    pub max_rel_goodput_error: f64,
}

/// Provenance of one benchmark or experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// The producing binary or test ("resilience", "server_test", ...).
    pub tool: String,
    /// [`fnv64`] of the scenario's canonical rendering; 0 when the run has
    /// no single scenario.
    pub scenario_hash: u64,
    /// [`fnv64`] of the fault plan's textual form; 0 when unfaulted.
    pub fault_plan_hash: u64,
    /// Engine seed.
    pub seed: u64,
    /// `(crate, version)` pairs compiled into the binary.
    pub crate_versions: Vec<(String, String)>,
    /// `(label, seconds)` wall-clock timings for the run's tiers.
    pub timings: Vec<(String, f64)>,
    /// Container hash of the checkpoint this run resumed from; 0 for a
    /// cold (non-resumed) run. Rendered only when non-zero.
    pub parent_snapshot_hash: u64,
    /// Engine step (event sequence number) the resume started at; only
    /// meaningful — and only rendered — when `parent_snapshot_hash` is
    /// non-zero.
    pub resume_step: u64,
    /// Number of execution attempts this run took under a supervisor; 1
    /// for an unsupervised (or first-try) run. Rendered only when the run
    /// was supervised and either retried, failed, or was quarantined.
    pub attempts: u64,
    /// One line per failed attempt, oldest first ("attempt 1: panicked:
    /// ..."). Empty for clean runs.
    pub failure_history: Vec<String>,
    /// True when the supervisor gave up on this trial after exhausting its
    /// attempt budget.
    pub quarantined: bool,
    /// Simulation backend that produced the run ("exact", "fluid", ...);
    /// empty for producers that predate backend stamping. Rendered only
    /// when non-empty.
    pub backend: String,
    /// Calibrated accuracy bounds of a reduced-fidelity backend; only
    /// meaningful — and only rendered — when `backend` is set.
    pub error_envelope: Option<ErrorEnvelope>,
}

impl RunManifest {
    /// A manifest for `tool` with everything else zero/empty.
    pub fn new(tool: impl Into<String>) -> Self {
        RunManifest {
            tool: tool.into(),
            scenario_hash: 0,
            fault_plan_hash: 0,
            seed: 0,
            crate_versions: Vec::new(),
            timings: Vec::new(),
            parent_snapshot_hash: 0,
            resume_step: 0,
            attempts: 1,
            failure_history: Vec::new(),
            quarantined: false,
            backend: String::new(),
            error_envelope: None,
        }
    }

    /// Stamp the simulation backend that produced the run
    /// (`Fidelity::name()`: "exact", "fluid", ...).
    pub fn set_backend(&mut self, backend: impl Into<String>) {
        self.backend = backend.into();
    }

    /// Stamp the backend's calibrated error envelope. Callers must also
    /// [`set_backend`](Self::set_backend); an envelope without a backend
    /// fails validation.
    pub fn set_error_envelope(&mut self, envelope: ErrorEnvelope) {
        self.error_envelope = Some(envelope);
    }

    /// Stamp checkpoint lineage: this run resumed at `step` from the
    /// snapshot whose container hash is `parent_hash`.
    pub fn set_lineage(&mut self, parent_hash: u64, step: u64) {
        self.parent_snapshot_hash = parent_hash;
        self.resume_step = step;
    }

    /// Record a tier timing.
    pub fn add_timing(&mut self, label: impl Into<String>, seconds: f64) {
        self.timings.push((label.into(), seconds));
    }

    /// Stamp supervised-execution provenance: the run took `attempts`
    /// tries, the earlier ones failing with the given one-line reasons,
    /// and was quarantined if the supervisor finally gave up.
    pub fn set_retries(&mut self, attempts: u64, failure_history: Vec<String>, quarantined: bool) {
        self.attempts = attempts;
        self.failure_history = failure_history;
        self.quarantined = quarantined;
    }

    /// Whether this manifest carries a non-trivial retry record (and so
    /// renders the retry block).
    fn has_retry_record(&self) -> bool {
        self.attempts > 1 || !self.failure_history.is_empty() || self.quarantined
    }

    /// Render as JSON. Hashes are 16-digit hex strings (they do not fit a
    /// JSON number exactly); members appear in a fixed order. Checkpoint
    /// lineage (`parent_snapshot_hash`, `resume_step`) is appended only for
    /// resumed runs, so cold-run manifests are unchanged from earlier
    /// schema consumers' expectations.
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            (
                "manifest_version".into(),
                Json::num_u64(MANIFEST_SCHEMA_VERSION),
            ),
            ("tool".into(), Json::str(self.tool.clone())),
            (
                "scenario_hash".into(),
                Json::str(format!("{:016x}", self.scenario_hash)),
            ),
            (
                "fault_plan_hash".into(),
                Json::str(format!("{:016x}", self.fault_plan_hash)),
            ),
            ("seed".into(), Json::num_u64(self.seed)),
            (
                "crate_versions".into(),
                Json::Obj(
                    self.crate_versions
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::str(v.clone())))
                        .collect(),
                ),
            ),
            (
                "timings_s".into(),
                Json::Obj(
                    self.timings
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ];
        if self.parent_snapshot_hash != 0 {
            members.push((
                "parent_snapshot_hash".into(),
                Json::str(format!("{:016x}", self.parent_snapshot_hash)),
            ));
            members.push(("resume_step".into(), Json::num_u64(self.resume_step)));
        }
        if self.has_retry_record() {
            members.push(("attempts".into(), Json::num_u64(self.attempts)));
            members.push((
                "failure_history".into(),
                Json::Arr(
                    self.failure_history
                        .iter()
                        .map(|line| Json::str(line.clone()))
                        .collect(),
                ),
            ));
            members.push(("quarantined".into(), Json::Bool(self.quarantined)));
        }
        if !self.backend.is_empty() {
            members.push(("backend".into(), Json::str(self.backend.clone())));
            if let Some(env) = &self.error_envelope {
                members.push((
                    "error_envelope".into(),
                    Json::Obj(vec![
                        ("max_abs_pdr_error".into(), Json::Num(env.max_abs_pdr_error)),
                        (
                            "max_rel_goodput_error".into(),
                            Json::Num(env.max_rel_goodput_error),
                        ),
                    ]),
                ));
            }
        }
        Json::Obj(members)
    }

    /// Validate that `json` is a well-formed manifest of this schema
    /// version.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or ill-typed member.
    pub fn validate(json: &Json) -> Result<(), String> {
        let version = json
            .get("manifest_version")
            .and_then(Json::as_u64)
            .ok_or("manifest_version missing")?;
        if version != MANIFEST_SCHEMA_VERSION {
            return Err(format!("unsupported manifest_version {version}"));
        }
        json.get("tool")
            .and_then(Json::as_str)
            .ok_or("tool missing")?;
        for key in ["scenario_hash", "fault_plan_hash"] {
            let hex = json
                .get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{key} missing"))?;
            if hex.len() != 16 || u64::from_str_radix(hex, 16).is_err() {
                return Err(format!("{key} is not a 16-digit hex hash: {hex:?}"));
            }
        }
        json.get("seed")
            .and_then(Json::as_u64)
            .ok_or("seed missing")?;
        match json.get("crate_versions") {
            Some(Json::Obj(members)) => {
                for (k, v) in members {
                    if v.as_str().is_none() {
                        return Err(format!("crate_versions.{k} is not a string"));
                    }
                }
            }
            _ => return Err("crate_versions missing".into()),
        }
        match json.get("timings_s") {
            Some(Json::Obj(members)) => {
                for (k, v) in members {
                    if v.as_f64().is_none() {
                        return Err(format!("timings_s.{k} is not a number"));
                    }
                }
            }
            _ => return Err("timings_s missing".into()),
        }
        // Checkpoint lineage is optional (absent on cold runs) but must be
        // well-formed and paired when present.
        let parent = json.get("parent_snapshot_hash");
        let step = json.get("resume_step");
        match (parent, step) {
            (None, None) => {}
            (Some(hash), Some(step)) => {
                let hex = hash
                    .as_str()
                    .ok_or("parent_snapshot_hash is not a string")?;
                if hex.len() != 16 || u64::from_str_radix(hex, 16).is_err() {
                    return Err(format!(
                        "parent_snapshot_hash is not a 16-digit hex hash: {hex:?}"
                    ));
                }
                step.as_u64().ok_or("resume_step is not an integer")?;
            }
            _ => return Err("parent_snapshot_hash and resume_step must appear together".into()),
        }
        // Retry provenance is optional (absent for unsupervised clean runs)
        // but must be well-formed and complete when present.
        let attempts = json.get("attempts");
        let history = json.get("failure_history");
        let quarantined = json.get("quarantined");
        match (attempts, history, quarantined) {
            (None, None, None) => {}
            (Some(attempts), Some(history), Some(quarantined)) => {
                if attempts.as_u64().is_none() {
                    return Err("attempts is not an integer".into());
                }
                match history {
                    Json::Arr(lines) => {
                        for line in lines {
                            if line.as_str().is_none() {
                                return Err("failure_history entry is not a string".into());
                            }
                        }
                    }
                    _ => return Err("failure_history is not an array".into()),
                }
                if !matches!(quarantined, Json::Bool(_)) {
                    return Err("quarantined is not a boolean".into());
                }
            }
            _ => {
                return Err("attempts, failure_history and quarantined must appear together".into())
            }
        }
        // Backend provenance is optional (absent from pre-fidelity
        // producers); the error envelope qualifies the backend and may not
        // appear without it.
        let backend = json.get("backend");
        if let Some(backend) = backend {
            let name = backend.as_str().ok_or("backend is not a string")?;
            if name.is_empty() {
                return Err("backend is empty".into());
            }
        }
        if let Some(env) = json.get("error_envelope") {
            if backend.is_none() {
                return Err("error_envelope must not appear without backend".into());
            }
            for key in ["max_abs_pdr_error", "max_rel_goodput_error"] {
                let v = env
                    .get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("error_envelope.{key} missing or not a number"))?;
                if !v.is_finite() || v < 0.0 {
                    return Err(format!(
                        "error_envelope.{key} is not a finite non-negative number"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The `(crate, version)` pairs of the telemetry stack itself, for
/// [`RunManifest::crate_versions`]. Callers append their own crates.
pub fn base_crate_versions() -> Vec<(String, String)> {
    vec![("cavenet-telemetry".into(), env!("CARGO_PKG_VERSION").into())]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn fnv64_matches_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        // FNV-1a("a") — standard test vector.
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn manifest_round_trips_and_validates() {
        let mut m = RunManifest::new("unit_test");
        m.scenario_hash = fnv64(b"scenario");
        m.fault_plan_hash = fnv64(b"plan");
        m.seed = 42;
        m.crate_versions = base_crate_versions();
        m.add_timing("run", 1.25);
        let rendered = m.to_json().render_pretty();
        let parsed = parse(&rendered).unwrap();
        RunManifest::validate(&parsed).unwrap();
        assert_eq!(parsed.get("seed").and_then(Json::as_u64), Some(42));
    }

    #[test]
    fn lineage_rendered_only_for_resumed_runs() {
        let cold = RunManifest::new("t");
        let cold_json = cold.to_json();
        assert!(cold_json.get("parent_snapshot_hash").is_none());
        assert!(cold_json.get("resume_step").is_none());
        RunManifest::validate(&parse(&cold_json.render_pretty()).unwrap()).unwrap();

        let mut resumed = RunManifest::new("t");
        resumed.set_lineage(fnv64(b"snapshot"), 12345);
        let json = parse(&resumed.to_json().render_pretty()).unwrap();
        RunManifest::validate(&json).unwrap();
        assert_eq!(
            json.get("parent_snapshot_hash").and_then(Json::as_str),
            Some(format!("{:016x}", fnv64(b"snapshot")).as_str())
        );
        assert_eq!(json.get("resume_step").and_then(Json::as_u64), Some(12345));
    }

    #[test]
    fn validation_rejects_unpaired_or_malformed_lineage() {
        let mut m = RunManifest::new("t");
        m.set_lineage(7, 1);
        let Json::Obj(mut members) = m.to_json() else {
            unreachable!()
        };
        // Drop resume_step: lineage must be paired.
        members.retain(|(k, _)| k != "resume_step");
        assert!(RunManifest::validate(&Json::Obj(members.clone())).is_err());
        // Malformed hash string.
        let mut m2 = RunManifest::new("t");
        m2.set_lineage(7, 1);
        let Json::Obj(mut members2) = m2.to_json() else {
            unreachable!()
        };
        for (k, v) in &mut members2 {
            if k == "parent_snapshot_hash" {
                *v = Json::str("xyz");
            }
        }
        assert!(RunManifest::validate(&Json::Obj(members2)).is_err());
    }

    #[test]
    fn retry_record_rendered_only_when_nontrivial() {
        let clean = RunManifest::new("t");
        let clean_json = clean.to_json();
        assert!(clean_json.get("attempts").is_none());
        assert!(clean_json.get("failure_history").is_none());
        assert!(clean_json.get("quarantined").is_none());
        RunManifest::validate(&parse(&clean_json.render_pretty()).unwrap()).unwrap();

        let mut retried = RunManifest::new("t");
        retried.set_retries(3, vec!["attempt 1: panicked: boom".into()], false);
        let json = parse(&retried.to_json().render_pretty()).unwrap();
        RunManifest::validate(&json).unwrap();
        assert_eq!(json.get("attempts").and_then(Json::as_u64), Some(3));
        match json.get("failure_history") {
            Some(Json::Arr(lines)) => assert_eq!(lines.len(), 1),
            other => panic!("failure_history missing or not an array: {other:?}"),
        }
        assert_eq!(json.get("quarantined"), Some(&Json::Bool(false)));
    }

    #[test]
    fn validation_rejects_unpaired_retry_record() {
        let mut m = RunManifest::new("t");
        m.set_retries(2, vec!["attempt 1: stalled".into()], true);
        let Json::Obj(mut members) = m.to_json() else {
            unreachable!()
        };
        members.retain(|(k, _)| k != "quarantined");
        assert!(RunManifest::validate(&Json::Obj(members)).is_err());
    }

    #[test]
    fn backend_block_rendered_only_when_stamped() {
        let unstamped = RunManifest::new("t");
        let json = unstamped.to_json();
        assert!(json.get("backend").is_none());
        assert!(json.get("error_envelope").is_none());
        RunManifest::validate(&parse(&json.render_pretty()).unwrap()).unwrap();

        let mut stamped = RunManifest::new("t");
        stamped.set_backend("fluid");
        stamped.set_error_envelope(ErrorEnvelope {
            max_abs_pdr_error: 0.08,
            max_rel_goodput_error: 0.12,
        });
        let json = parse(&stamped.to_json().render_pretty()).unwrap();
        RunManifest::validate(&json).unwrap();
        assert_eq!(json.get("backend").and_then(Json::as_str), Some("fluid"));
        let env = json.get("error_envelope").expect("envelope present");
        assert_eq!(
            env.get("max_abs_pdr_error").and_then(Json::as_f64),
            Some(0.08)
        );
        assert_eq!(
            env.get("max_rel_goodput_error").and_then(Json::as_f64),
            Some(0.12)
        );

        // A backend alone (exact runs have no envelope) still validates.
        let mut exact = RunManifest::new("t");
        exact.set_backend("exact");
        RunManifest::validate(&parse(&exact.to_json().render_pretty()).unwrap()).unwrap();
    }

    #[test]
    fn validation_rejects_envelope_without_backend_and_bad_bounds() {
        let mut m = RunManifest::new("t");
        m.set_backend("fluid");
        m.set_error_envelope(ErrorEnvelope {
            max_abs_pdr_error: 0.05,
            max_rel_goodput_error: 0.1,
        });
        let Json::Obj(mut members) = m.to_json() else {
            unreachable!()
        };
        // An envelope whose backend member was stripped must be rejected.
        members.retain(|(k, _)| k != "backend");
        assert!(RunManifest::validate(&Json::Obj(members)).is_err());

        // Negative or non-finite bounds must be rejected (validated on the
        // in-memory tree: non-finite numbers never survive a JSON round
        // trip anyway).
        for bad in [-0.1, f64::NAN, f64::INFINITY] {
            let mut m = RunManifest::new("t");
            m.set_backend("fluid");
            m.set_error_envelope(ErrorEnvelope {
                max_abs_pdr_error: bad,
                max_rel_goodput_error: 0.1,
            });
            assert!(
                RunManifest::validate(&m.to_json()).is_err(),
                "bound {bad} should not validate"
            );
        }
    }

    #[test]
    fn validation_rejects_missing_members() {
        let mut m = RunManifest::new("t");
        m.seed = 1;
        let Json::Obj(mut members) = m.to_json() else {
            unreachable!()
        };
        members.retain(|(k, _)| k != "seed");
        assert!(RunManifest::validate(&Json::Obj(members)).is_err());
    }

    #[test]
    fn validation_rejects_foreign_version() {
        let mut m = RunManifest::new("t");
        m.scenario_hash = 1;
        let Json::Obj(mut members) = m.to_json() else {
            unreachable!()
        };
        members[0].1 = Json::num_u64(99);
        assert!(RunManifest::validate(&Json::Obj(members)).is_err());
    }
}
