//! The campaign ledger: durable, resumable record of every trial's fate.
//!
//! A campaign that dies — crash, SIGTERM, graceful shutdown — must not
//! re-run work it already finished. The ledger is the unit of that
//! promise: one JSON document mapping each trial's identity to its
//! terminal (or interrupted) state. On restart the server loads it and
//! replays completed trials from the record instead of the simulator,
//! while interrupted trials fall back to their on-disk checkpoints.
//!
//! Trial identity is the same pair checkpoints validate against
//! ([`scenario_identity`](cavenet_core::scenario_identity)): the scenario
//! hash and the seed. Digests recorded here are the golden event-stream
//! digests, so a resumed campaign can still be audited for bit-identical
//! behaviour.

use std::path::Path;

use cavenet_checkpoint::store;
use cavenet_telemetry::json::parse;
use cavenet_telemetry::Json;

/// Version stamped into every ledger as `"ledger_version"`.
pub const LEDGER_SCHEMA_VERSION: u64 = 1;

/// Identity of one trial: the checkpoint-layer scenario hash plus the
/// trial seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TrialKey {
    /// [`scenario_identity`](cavenet_core::scenario_identity) hash of the
    /// trial's scenario.
    pub scenario_hash: u64,
    /// The trial's engine seed.
    pub seed: u64,
}

impl TrialKey {
    /// The key of `scenario`, derived exactly like checkpoint metadata.
    pub fn of(scenario: &cavenet_core::Scenario) -> TrialKey {
        let meta = cavenet_core::scenario_identity(scenario);
        TrialKey {
            scenario_hash: meta.scenario_hash,
            seed: meta.seed,
        }
    }

    /// Stable directory name for this trial's checkpoint store.
    pub fn dir_name(&self) -> String {
        format!("trial_{:016x}_{:016x}", self.scenario_hash, self.seed)
    }
}

/// The recorded fate of one trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrialState {
    /// The trial finished; its golden digest and event count are the
    /// audit record a replay must match.
    Completed {
        /// Final event-stream digest.
        digest: u64,
        /// Engine events dispatched.
        events: u64,
        /// Attempts it took (1 = clean first try).
        attempts: u64,
    },
    /// The supervisor exhausted the attempt budget and gave up; the
    /// failure history explains every attempt.
    Quarantined {
        /// One line per failed attempt, oldest first.
        failures: Vec<String>,
    },
    /// A shutdown caught the trial mid-run; it checkpointed and can
    /// resume from its store.
    Interrupted {
        /// Attempts consumed so far (failed attempts only).
        attempts: u64,
    },
    /// Admitted but never started (drained from the queue by a
    /// shutdown). Resubmit to run it.
    Pending,
}

impl TrialState {
    fn name(&self) -> &'static str {
        match self {
            TrialState::Completed { .. } => "completed",
            TrialState::Quarantined { .. } => "quarantined",
            TrialState::Interrupted { .. } => "interrupted",
            TrialState::Pending => "pending",
        }
    }
}

/// The campaign's trial-by-trial record, in recording order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignLedger {
    /// Campaign master seed (provenance; backoff derives from it).
    pub campaign_seed: u64,
    /// `(trial, state)` pairs; a key recorded twice keeps the later state.
    pub entries: Vec<(TrialKey, TrialState)>,
}

impl CampaignLedger {
    /// An empty ledger for `campaign_seed`.
    pub fn new(campaign_seed: u64) -> Self {
        CampaignLedger {
            campaign_seed,
            entries: Vec::new(),
        }
    }

    /// Record (or overwrite) the state of `key`.
    pub fn record(&mut self, key: TrialKey, state: TrialState) {
        if let Some(entry) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            entry.1 = state;
        } else {
            self.entries.push((key, state));
        }
    }

    /// The recorded state of `key`, if any.
    pub fn get(&self, key: TrialKey) -> Option<&TrialState> {
        self.entries.iter().find(|(k, _)| *k == key).map(|(_, s)| s)
    }

    /// Render as a JSON document.
    pub fn to_json(&self) -> Json {
        let trials = self
            .entries
            .iter()
            .map(|(key, state)| {
                let mut members = vec![
                    (
                        "scenario_hash".to_string(),
                        Json::str(format!("{:016x}", key.scenario_hash)),
                    ),
                    ("seed".to_string(), Json::num_u64(key.seed)),
                    ("state".to_string(), Json::str(state.name())),
                ];
                match state {
                    TrialState::Completed {
                        digest,
                        events,
                        attempts,
                    } => {
                        members.push(("digest".into(), Json::str(format!("{digest:016x}"))));
                        members.push(("events".into(), Json::num_u64(*events)));
                        members.push(("attempts".into(), Json::num_u64(*attempts)));
                    }
                    TrialState::Quarantined { failures } => {
                        members.push((
                            "failures".into(),
                            Json::Arr(failures.iter().map(|f| Json::str(f.clone())).collect()),
                        ));
                    }
                    TrialState::Interrupted { attempts } => {
                        members.push(("attempts".into(), Json::num_u64(*attempts)));
                    }
                    TrialState::Pending => {}
                }
                Json::Obj(members)
            })
            .collect();
        Json::Obj(vec![
            (
                "ledger_version".into(),
                Json::num_u64(LEDGER_SCHEMA_VERSION),
            ),
            ("campaign_seed".into(), Json::num_u64(self.campaign_seed)),
            ("trials".into(), Json::Arr(trials)),
        ])
    }

    /// Parse a document produced by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// A message naming the first missing or ill-typed member.
    pub fn from_text(text: &str) -> Result<CampaignLedger, String> {
        let json = parse(text).map_err(|e| format!("ledger is not JSON: {e}"))?;
        let version = json
            .get("ledger_version")
            .and_then(Json::as_u64)
            .ok_or("ledger_version missing")?;
        if version != LEDGER_SCHEMA_VERSION {
            return Err(format!("unsupported ledger_version {version}"));
        }
        let campaign_seed = json
            .get("campaign_seed")
            .and_then(Json::as_u64)
            .ok_or("campaign_seed missing")?;
        let Some(Json::Arr(trials)) = json.get("trials") else {
            return Err("trials missing or not an array".into());
        };
        let mut ledger = CampaignLedger::new(campaign_seed);
        for (i, trial) in trials.iter().enumerate() {
            let entry = parse_trial(trial).map_err(|e| format!("trials[{i}]: {e}"))?;
            ledger.record(entry.0, entry.1);
        }
        Ok(ledger)
    }

    /// Load the ledger at `path`; `Ok(None)` when the file does not exist.
    ///
    /// # Errors
    ///
    /// An unreadable or malformed file (a *present* ledger that cannot be
    /// trusted must not be silently ignored — it guards re-execution).
    pub fn load(path: &Path) -> Result<Option<CampaignLedger>, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
        };
        CampaignLedger::from_text(&text).map(Some)
    }

    /// Write the ledger to `path` (parent directories created on demand)
    /// [atomically](store::write_atomic): a process killed mid-save
    /// leaves the previous ledger, never a torn one that would refuse the
    /// next start.
    ///
    /// # Errors
    ///
    /// Any filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), std::io::Error> {
        store::write_atomic(path, self.to_json().render_pretty().as_bytes())
    }
}

fn hex_u64(json: &Json, key: &str) -> Result<u64, String> {
    let hex = json
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{key} missing"))?;
    u64::from_str_radix(hex, 16).map_err(|_| format!("{key} is not a hex hash: {hex:?}"))
}

fn parse_trial(trial: &Json) -> Result<(TrialKey, TrialState), String> {
    let key = TrialKey {
        scenario_hash: hex_u64(trial, "scenario_hash")?,
        seed: trial
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or("seed missing")?,
    };
    let attempts = || {
        trial
            .get("attempts")
            .and_then(Json::as_u64)
            .ok_or("attempts missing".to_string())
    };
    let state = match trial.get("state").and_then(Json::as_str) {
        Some("completed") => TrialState::Completed {
            digest: hex_u64(trial, "digest")?,
            events: trial
                .get("events")
                .and_then(Json::as_u64)
                .ok_or("events missing")?,
            attempts: attempts()?,
        },
        Some("quarantined") => {
            let Some(Json::Arr(lines)) = trial.get("failures") else {
                return Err("failures missing or not an array".into());
            };
            let mut failures = Vec::with_capacity(lines.len());
            for line in lines {
                failures.push(
                    line.as_str()
                        .ok_or("failures entry is not a string")?
                        .to_string(),
                );
            }
            TrialState::Quarantined { failures }
        }
        Some("interrupted") => TrialState::Interrupted {
            attempts: attempts()?,
        },
        Some("pending") => TrialState::Pending,
        Some(other) => return Err(format!("unknown state {other:?}")),
        None => return Err("state missing".into()),
    };
    Ok((key, state))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> TrialKey {
        TrialKey {
            scenario_hash: n * 0x9e37,
            seed: n,
        }
    }

    #[test]
    fn round_trips_every_state() {
        let mut ledger = CampaignLedger::new(99);
        ledger.record(
            key(1),
            TrialState::Completed {
                digest: 0xdead_beef,
                events: 12_345,
                attempts: 2,
            },
        );
        ledger.record(
            key(2),
            TrialState::Quarantined {
                failures: vec![
                    "attempt 1: panicked: boom".into(),
                    "attempt 2: stalled".into(),
                ],
            },
        );
        ledger.record(key(3), TrialState::Interrupted { attempts: 1 });
        ledger.record(key(4), TrialState::Pending);

        let text = ledger.to_json().render_pretty();
        let back = CampaignLedger::from_text(&text).unwrap();
        assert_eq!(back, ledger);
    }

    #[test]
    fn re_recording_overwrites_in_place() {
        let mut ledger = CampaignLedger::new(0);
        ledger.record(key(1), TrialState::Interrupted { attempts: 1 });
        ledger.record(
            key(1),
            TrialState::Completed {
                digest: 1,
                events: 2,
                attempts: 2,
            },
        );
        assert_eq!(ledger.entries.len(), 1);
        assert!(matches!(
            ledger.get(key(1)),
            Some(TrialState::Completed { attempts: 2, .. })
        ));
    }

    #[test]
    fn load_of_missing_file_is_none_and_garbage_is_an_error() {
        let dir = std::env::temp_dir().join(format!("cavenet_ledger_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("ledger.json");
        assert_eq!(CampaignLedger::load(&path), Ok(None));

        let mut ledger = CampaignLedger::new(5);
        ledger.record(key(9), TrialState::Pending);
        ledger.save(&path).unwrap();
        assert_eq!(CampaignLedger::load(&path).unwrap(), Some(ledger));
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(
            names,
            ["ledger.json"],
            "the save renamed its .tmp into place"
        );

        std::fs::write(&path, "{ not json").unwrap();
        assert!(CampaignLedger::load(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_and_state_are_validated() {
        let mut ledger = CampaignLedger::new(1);
        ledger.record(key(1), TrialState::Pending);
        let bad_version = ledger
            .to_json()
            .render_pretty()
            .replace("\"ledger_version\": 1", "\"ledger_version\": 99");
        assert!(CampaignLedger::from_text(&bad_version).is_err());
        let bad_state = ledger
            .to_json()
            .render_pretty()
            .replace("\"pending\"", "\"vanished\"");
        assert!(CampaignLedger::from_text(&bad_state).is_err());
    }
}
