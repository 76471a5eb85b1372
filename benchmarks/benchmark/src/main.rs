//! CAVENET-RS repository benchmark.
//!
//! One invocation runs one workload in its own process:
//!
//! ```text
//! cargo run --release -q --manifest-path benchmarks/benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! cargo run --release -q --manifest-path benchmarks/benchmark/Cargo.toml -- --record
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the same
//! ops once untraced and once traced, checks the two agree, and reports
//! the per-layer ledger. Every metric is printed by name with its unit,
//! and the last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--record` rewrites
//! `expected.json`, the seed-1 fingerprints of every workload. See
//! README.md for the workloads, metrics and bounds.

mod ledger;
mod metrics;
mod workloads;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cavenet_core::Fidelity;
use cavenet_telemetry::Json;
use cavenet_testkit::digest_scenario;

use ledger::Ledger;
use metrics::Metric;
use workloads::{
    op_trials, run_batch, run_traced_exact, run_traced_fluid, run_trial, BoxError, Sizes, Workload,
};

const USAGE: &str = "usage: benchmark --workload <table1_protocols|jam_ring_100k|fluid_jam_100k|\
campaign_table1> --seed <u64> --seconds <s> --trace <0|1> [--quick]\n       benchmark --record";

/// The seed `expected.json` holds fingerprints for.
const RECORD_SEED: u64 = 1;
const EXPECTED: &str = include_str!("../expected.json");

/// A run stops starting new ops after this long even if its first cycle
/// is incomplete, to stay well inside the 180 s a run may take.
const HARD_STOP: Duration = Duration::from_secs(120);

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
    quick: bool,
}

enum Command {
    Run(Args),
    Record,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let mut args = args.into_iter();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut quick = false;
    let mut record = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                });
            }
            "--quick" => quick = true,
            "--record" => record = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if record {
        return Ok(Command::Record);
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        quick,
    }))
}

/// What one op produced.
#[derive(Debug, Default)]
struct OpRun {
    wall_ns: u64,
    setup_ns: Vec<u64>,
    /// Per-trial untraced wall time (empty for a supervised batch).
    trial_ns: Vec<u64>,
    fingerprints: Vec<u64>,
}

/// Checks op fingerprints: against `expected.json` at the recorded seed,
/// against the first run of the same op everywhere, and for campaign
/// batches against each trial's unsupervised golden digest.
struct Oracle {
    expected: Option<Vec<Vec<u64>>>,
    reference: Option<Vec<u64>>,
    seen: BTreeMap<usize, Vec<u64>>,
}

impl Oracle {
    fn check(&mut self, cycle_pos: usize, fingerprints: &[u64]) -> Result<(), String> {
        if let Some(expected) = &self.expected {
            if expected.get(cycle_pos).map(Vec::as_slice) != Some(fingerprints) {
                return Err(format!(
                    "op {cycle_pos}: fingerprints differ from expected.json"
                ));
            }
        }
        if let Some(reference) = &self.reference {
            if reference != fingerprints {
                return Err(format!(
                    "op {cycle_pos}: supervised digests differ from straight runs"
                ));
            }
        }
        let first = self
            .seen
            .entry(cycle_pos)
            .or_insert_with(|| fingerprints.to_vec());
        if first != fingerprints {
            return Err(format!("op {cycle_pos}: a repeat changed its fingerprints"));
        }
        Ok(())
    }
}

/// Seed-1 fingerprints from `expected.json`, one list per op of a cycle.
fn expected_fingerprints(text: &str, w: Workload) -> Result<Vec<Vec<u64>>, String> {
    let doc = cavenet_telemetry::json::parse(text)?;
    let Some(Json::Arr(ops)) = doc.get("workloads").and_then(|ws| ws.get(w.name())) else {
        return Err(format!("expected.json has no entry for {}", w.name()));
    };
    ops.iter()
        .map(|op| match op {
            Json::Arr(fps) => fps
                .iter()
                .map(|f| {
                    f.as_str()
                        .and_then(|h| u64::from_str_radix(h, 16).ok())
                        .ok_or_else(|| "expected.json fingerprints are hex strings".to_string())
                })
                .collect(),
            _ => Err("expected.json ops are arrays".to_string()),
        })
        .collect()
}

/// Run-level outcome, printed at the end.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Outcome {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.errors.push(what);
    }
}

struct Bench {
    workload: Workload,
    sizes: Sizes,
    seed: u64,
    seconds: Duration,
    work_dir: PathBuf,
    roots: u64,
    oracle: Oracle,
    outcome: Outcome,
    /// Peak resident set once the first op is done.
    first_op_rss_mb: f64,
}

impl Bench {
    /// `check_expected` compares every op with `expected.json`.
    fn new(
        workload: Workload,
        sizes: Sizes,
        seed: u64,
        seconds: Duration,
        work_dir: PathBuf,
        check_expected: bool,
    ) -> Result<Bench, BoxError> {
        let expected = if check_expected {
            Some(expected_fingerprints(EXPECTED, workload)?)
        } else {
            None
        };
        // Every batch submits the same trials; their unsupervised golden
        // digests are what each supervised digest must equal.
        let reference = (workload == Workload::CampaignTable1).then(|| {
            op_trials(workload, &sizes, seed, 0)
                .iter()
                .map(|s| digest_scenario(s).digest)
                .collect()
        });
        Ok(Bench {
            workload,
            sizes,
            seed,
            seconds,
            work_dir,
            roots: 0,
            oracle: Oracle {
                expected,
                reference,
                seen: BTreeMap::new(),
            },
            outcome: Outcome::default(),
            first_op_rss_mb: 0.0,
        })
    }

    fn cycle(&self) -> usize {
        self.sizes.cycle(self.workload)
    }

    /// A fresh directory under the work dir for one campaign store.
    fn next_root(&mut self) -> PathBuf {
        self.roots += 1;
        self.work_dir.join(format!("store-{}", self.roots))
    }

    fn run_op(&mut self, op: usize) -> Result<OpRun, BoxError> {
        let trials = op_trials(self.workload, &self.sizes, self.seed, op);
        let mut run = OpRun::default();
        if self.workload == Workload::CampaignTable1 {
            let root = self.next_root();
            let batch = run_batch(&trials, &root, self.seed, true, false)?;
            run.wall_ns = batch.wall_ns;
            run.setup_ns.push(batch.setup_ns);
            run.fingerprints = batch
                .digests
                .iter()
                .map(|d| d.ok_or("a supervised trial did not complete"))
                .collect::<Result<_, _>>()?;
        } else {
            for s in trials {
                let trial = run_trial(s)?;
                run.wall_ns += trial.wall_ns;
                run.setup_ns.push(trial.setup_ns);
                run.trial_ns.push(trial.wall_ns);
                run.fingerprints.push(trial.fingerprint);
            }
        }
        Ok(run)
    }

    /// Run op `op` untraced and check its fingerprints. A failed op is
    /// counted and yields `None`.
    fn attempt(&mut self, op: usize) -> Option<OpRun> {
        self.outcome.attempted += 1;
        let checked = match catch_unwind(AssertUnwindSafe(|| self.run_op(op))) {
            Ok(Ok(run)) => self
                .oracle
                .check(op % self.cycle(), &run.fingerprints)
                .map(|()| run),
            Ok(Err(e)) => Err(format!("op {op}: {e}")),
            Err(_) => Err(format!("op {op} panicked")),
        };
        if op == 0 {
            // Later ops reuse freed memory in allocator-dependent ways,
            // which makes the process high-water mark bimodal.
            self.first_op_rss_mb = peak_rss_mb();
        }
        checked.map_err(|e| self.outcome.fail(e)).ok()
    }

    /// Whether to start op `op` of a run that began at `start`: always
    /// the first, then until `--seconds` (and, with `full_cycle`, one
    /// whole cycle) are done, but never past [`HARD_STOP`].
    fn more(&self, op: usize, start: Instant, full_cycle: bool) -> bool {
        let elapsed = start.elapsed();
        op == 0
            || (elapsed < HARD_STOP
                && (elapsed < self.seconds || (full_cycle && op < self.cycle())))
    }

    fn untraced_pass(&mut self) -> Vec<Option<OpRun>> {
        let start = Instant::now();
        let mut runs = Vec::new();
        while self.more(runs.len(), start, true) {
            let run = self.attempt(runs.len());
            runs.push(run);
        }
        runs
    }

    fn run_untraced(&mut self) -> Vec<Metric> {
        let runs = self.untraced_pass();
        // Each op is timed as its best over the run's passes: contention
        // from other tenants of a shared host only ever adds time.
        let cycle = self.cycle();
        let mut best: Vec<Option<u64>> = vec![None; cycle];
        for (op, run) in runs.iter().enumerate() {
            if let Some(run) = run {
                let b = &mut best[op % cycle];
                *b = Some(b.map_or(run.wall_ns, |t| t.min(run.wall_ns)));
            }
        }
        let best: Vec<u64> = best.into_iter().flatten().collect();
        // A cycle cut short by the hard stop is scaled up to a whole one.
        let cycle_ns = best.iter().sum::<u64>() as f64 * cycle as f64 / best.len().max(1) as f64;
        let setup_ns: Vec<u64> = runs
            .iter()
            .flatten()
            .flat_map(|r| r.setup_ns.iter().copied())
            .collect();
        metrics::end_to_end(cycle_ns, &best, &setup_ns, self.first_op_rss_mb)
    }

    fn run_traced(&mut self) -> Vec<Metric> {
        let start = Instant::now();
        let mut ledger = Ledger::default();
        let mut op = 0;
        while self.more(op, start, false) {
            // Each op runs untraced, then traced right after, so the pair
            // shares the process's warm state.
            if let Some(untraced) = self.attempt(op) {
                self.outcome.attempted += 1;
                let traced = catch_unwind(AssertUnwindSafe(|| {
                    self.traced_op(op, &untraced, &mut ledger)
                }));
                match traced {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => self.outcome.fail(format!("traced op {op}: {e}")),
                    Err(_) => self.outcome.fail(format!("traced op {op} panicked")),
                }
            }
            op += 1;
        }
        metrics::per_layer(&ledger)
    }

    /// Trace op `op`, checking every trial against its untraced run.
    fn traced_op(
        &mut self,
        op: usize,
        untraced: &OpRun,
        ledger: &mut Ledger,
    ) -> Result<(), BoxError> {
        let trials = op_trials(self.workload, &self.sizes, self.seed, op);
        if self.workload == Workload::CampaignTable1 {
            return self.traced_batch(&trials, untraced, ledger);
        }
        for ((s, &fp), &ns) in trials
            .into_iter()
            .zip(&untraced.fingerprints)
            .zip(&untraced.trial_ns)
        {
            let traced = if s.fidelity == Fidelity::Fluid {
                run_traced_fluid(s, ledger)?
            } else {
                run_traced_exact(s, ledger, None)?
            };
            ledger.untraced_ns += ns;
            if traced != fp {
                return Err("a traced trial's fingerprint differs from its untraced run".into());
            }
        }
        Ok(())
    }

    /// The campaign's traced op: the batch's trials run straight (the
    /// baseline), traced with a 4 s checkpoint cadence, and supervised
    /// with and without the snapshot bus.
    fn traced_batch(
        &mut self,
        trials: &[cavenet_core::Scenario],
        untraced: &OpRun,
        ledger: &mut Ledger,
    ) -> Result<(), BoxError> {
        let mut straight_ns = 0;
        for s in trials {
            let straight = run_trial(s.clone())?;
            straight_ns += straight.wall_ns;
            let dir = self.next_root();
            let traced = run_traced_exact(s.clone(), ledger, Some(&dir))?;
            std::fs::remove_dir_all(&dir)?;
            ledger.untraced_ns += straight.wall_ns;
            if traced != straight.fingerprint {
                return Err("traced fingerprint differs from the straight run".into());
            }
        }
        let root = self.next_root();
        let streamed = run_batch(trials, &root, self.seed, true, true)?;
        let root = self.next_root();
        let unstreamed = run_batch(trials, &root, self.seed, false, false)?;
        let reference = self.oracle.reference.as_deref().unwrap_or_default();
        let matches = streamed
            .digests
            .iter()
            .zip(reference)
            .filter(|(d, r)| **d == Some(**r))
            .count();
        ledger.digest_matches += matches as u64;
        if matches != trials.len() {
            return Err("supervised digests differ from straight runs".into());
        }
        ledger.batch_trials += trials.len() as u64;
        // The untraced pass's batch is the streamed baseline: unlike
        // `streamed`, it did not render the feed or walk the store.
        ledger.supervised_ns += untraced.wall_ns;
        ledger.straight_ns += straight_ns;
        ledger.unstreamed_ns += unstreamed.wall_ns;
        ledger.dir_bytes += streamed.dir_bytes;
        ledger.trial_retries += streamed.retries + unstreamed.retries;
        ledger.watchdog_stalls += streamed.stalls + unstreamed.stalls;
        ledger.trials_lost += streamed.lost + unstreamed.lost;
        ledger.admission_sheds += streamed.sheds + unstreamed.sheds;
        ledger.stream_snapshots += streamed.stream_snapshots;
        ledger.feed_bytes += streamed.feed_bytes;
        ledger.stream_shed += streamed.shed;
        Ok(())
    }
}

/// Peak resident set size in MiB (`VmHWM`), 0 where procfs is missing.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn host() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|m| m.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!("cores={cores} cpu=\"{cpu}\"")
}

fn run(args: &Args) -> Result<(Vec<Metric>, Outcome), BoxError> {
    let work_dir = Path::new(".bench_work").join(std::process::id().to_string());
    let sizes = if args.quick {
        Sizes::QUICK
    } else {
        Sizes::FULL
    };
    let check_expected = args.seed == RECORD_SEED && !args.quick;
    let mut bench = Bench::new(
        args.workload,
        sizes,
        args.seed,
        args.seconds,
        work_dir.clone(),
        check_expected,
    )?;
    let metrics = if args.trace {
        bench.run_traced()
    } else {
        bench.run_untraced()
    };
    if work_dir.exists() {
        std::fs::remove_dir_all(&work_dir)?;
    }
    // The shared parent goes too once no other run is using it.
    let _ = std::fs::remove_dir(".bench_work");
    Ok((metrics, bench.outcome))
}

/// Rewrite `expected.json` from one untraced cycle of every workload at
/// the recorded seed.
fn record() -> Result<(), BoxError> {
    let work_dir = Path::new(".bench_work").join("record");
    let mut workloads = Vec::new();
    for w in Workload::ALL {
        let mut bench = Bench::new(
            w,
            Sizes::FULL,
            RECORD_SEED,
            Duration::ZERO,
            work_dir.clone(),
            false,
        )?;
        let runs = bench.untraced_pass();
        if bench.outcome.failed > 0 {
            return Err(bench.outcome.errors.join("; ").into());
        }
        let ops = runs
            .into_iter()
            .flatten()
            .map(|r| {
                Json::Arr(
                    r.fingerprints
                        .iter()
                        .map(|f| Json::str(format!("{f:016x}")))
                        .collect(),
                )
            })
            .collect();
        println!("recorded {}", w.name());
        workloads.push((w.name().to_string(), Json::Arr(ops)));
    }
    let _ = std::fs::remove_dir_all(&work_dir);
    let _ = std::fs::remove_dir(".bench_work");
    let doc = Json::Obj(vec![
        ("seed".into(), Json::num_u64(RECORD_SEED)),
        ("workloads".into(), Json::Obj(workloads)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.json");
    std::fs::write(path, doc.render_pretty())?;
    println!("wrote {path}");
    Ok(())
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Command::Record) => {
            if let Err(e) = record() {
                eprintln!("record failed: {e}");
                std::process::exit(1);
            }
            return;
        }
        Ok(Command::Run(args)) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mode = if args.trace { "traced" } else { "untraced" };
    println!(
        "# workload={} seed={} mode={mode} seconds={} sizes={} host: {}",
        args.workload.name(),
        args.seed,
        args.seconds.as_secs_f64(),
        if args.quick { "quick" } else { "full" },
        host()
    );
    let (metrics, outcome) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            std::process::exit(1);
        }
    };
    for e in &outcome.errors {
        eprintln!("FAILED: {e}");
    }
    for m in &metrics {
        println!("{:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "# ops attempted={} failed={}",
        outcome.attempted, outcome.failed
    );
    let line = Json::Obj(vec![
        (
            "correct".into(),
            Json::Bool(outcome.failed == 0 && outcome.attempted > 0),
        ),
        ("attempted".into(), Json::num_u64(outcome.attempted)),
        ("failed".into(), Json::num_u64(outcome.failed)),
        ("metrics".into(), metrics::to_json(&metrics)),
    ]);
    println!("{}", line.render());
}

#[cfg(test)]
mod tests {
    use super::*;
    use cavenet_core::Experiment;
    use workloads::fingerprint;

    fn quick_bench(w: Workload, seed: u64, tag: &str) -> Bench {
        let dir =
            std::env::temp_dir().join(format!("cavenet-benchmark-{}-{tag}", std::process::id()));
        Bench::new(w, Sizes::QUICK, seed, Duration::ZERO, dir, false).expect("bench builds")
    }

    /// Runs quick op 0 untraced, then traced; returns the ledger.
    fn traced_quick(w: Workload, tag: &str) -> Ledger {
        let mut bench = quick_bench(w, 5, tag);
        let run = bench.attempt(0).expect("untraced op 0 runs");
        let mut ledger = Ledger::default();
        bench
            .traced_op(0, &run, &mut ledger)
            .expect("traced op 0 matches its untraced run");
        assert_eq!(bench.outcome.failed, 0, "{:?}", bench.outcome.errors);
        let _ = std::fs::remove_dir_all(&bench.work_dir);
        ledger
    }

    #[test]
    fn traced_runs_reproduce_untraced_fingerprints() {
        for w in Workload::ALL {
            let ledger = traced_quick(w, w.name());
            assert!(ledger.trials > 0, "{} traced no trial", w.name());
        }
    }

    #[test]
    fn build_run_collect_matches_experiment_run() {
        for w in [Workload::Table1Protocols, Workload::JamRing100k] {
            for s in op_trials(w, &Sizes::QUICK, 9, 0) {
                let expected =
                    fingerprint(&Experiment::new(s.clone()).run().expect("scenario runs"));
                assert_eq!(
                    run_trial(s).expect("trial runs").fingerprint,
                    expected,
                    "{}",
                    w.name()
                );
            }
        }
        // `Experiment::run()` dispatches a fluid scenario to `run_fluid()`.
        for s in op_trials(Workload::FluidJam100k, &Sizes::QUICK, 9, 0) {
            let (_, engine) = Experiment::new(s.clone())
                .run_fluid()
                .expect("scenario runs");
            assert_eq!(
                run_trial(s).expect("trial runs").fingerprint,
                engine.digest()
            );
        }
    }

    #[test]
    fn event_self_time_covers_the_run() {
        for w in [Workload::Table1Protocols, Workload::JamRing100k] {
            let l = traced_quick(w, "coverage");
            let self_ns: i64 = l.clock.kinds.iter().map(|k| k.self_ns).sum();
            let covered = self_ns as f64 + l.wrappers.nested_ns as f64;
            let share = covered / l.run_ns as f64;
            assert!(
                share >= 0.95,
                "{}: event self time plus nested layers cover {share:.3} of net.run",
                w.name()
            );
        }
    }

    #[test]
    fn benchmark_json_names_every_emitted_metric() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = cavenet_telemetry::json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            let Some(Json::Arr(items)) = doc.get(key) else {
                panic!("BENCHMARK.json lacks {key}")
            };
            items
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .expect("name and unit")
                            .to_string()
                    };
                    (
                        field("name"),
                        field(if key == "workloads" { "why" } else { "unit" }),
                    )
                })
                .collect()
        };
        let emitted = |ms: Vec<Metric>| -> Vec<(String, String)> {
            ms.into_iter()
                .map(|m| (m.name, m.unit.to_string()))
                .collect()
        };
        assert_eq!(
            listed("end_to_end"),
            emitted(metrics::end_to_end(1.0, &[1], &[1], 1.0))
        );
        assert_eq!(
            listed("per_layer"),
            emitted(metrics::per_layer(&Ledger::default()))
        );
        let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
        for (name, _) in listed("end_to_end").into_iter().chain(listed("per_layer")) {
            let valid = name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
            assert!(valid, "metric name {name:?} is not [A-Za-z0-9_.-]+");
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let Ok(Command::Run(a)) = args("--workload jam_ring_100k --seed 7 --seconds 10 --trace 1")
        else {
            panic!("valid arguments rejected")
        };
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace, a.quick),
            (
                Workload::JamRing100k,
                7,
                Duration::from_secs(10),
                true,
                false
            )
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload jam_ring_100k --seed 1 --seconds 0 --trace 0",
            "--workload jam_ring_100k --seed 1 --seconds 1 --trace 2",
            "--workload jam_ring_100k --seed 1 --seconds 1",
            "--workload jam_ring_100k --seed 1 --seconds 1 --trace 0 --extra",
        ] {
            assert!(args(bad).is_err(), "accepted {bad:?}");
        }
    }
}
