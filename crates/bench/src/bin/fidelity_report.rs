//! Fidelity report: differential accuracy and speedup of the fluid
//! backend against the exact engine, emitted as
//! `benchmarks/BENCH_fluid.json`.
//!
//! Two sections:
//!
//! 1. **Accuracy** — every golden-fixture scenario class (Table 1 × five
//!    protocols, Fig. 11's eight-sender load, and the fixed-churn
//!    variant) runs under both backends. Per class the report records
//!    exact and fluid PDR, delivered goodput, wall time, the absolute
//!    PDR error and relative goodput error, and the per-class speedup.
//!    The maxima across classes form the fluid backend's **error
//!    envelope**, stamped into the manifest next to `backend: "fluid"`.
//!    The churn class intentionally includes a fault plan the fluid
//!    model does not simulate, so its error bounds that abstraction gap.
//! 2. **Speedup sweep** — the saturated jam ring from `scale_report`
//!    (2 m headway, flooded CBR packet) at increasing node counts. The
//!    fluid model works at grid-cell granularity, so its wall time is
//!    near-independent of density; the 10 k-node point is the gate the
//!    ISSUE targets at ≥ 100×.
//!
//! With `--check`, exits non-zero when, compared to the committed
//! `benchmarks/BENCH_fluid.json`: any class's absolute PDR error grew by
//! more than 0.02 over its committed bound, any class's relative goodput
//! error grew by more than 0.05, or the gate-point speedup fell below
//! 80 % of the committed value.
//!
//! Usage: `fidelity_report [--quick] [--check]`

use std::time::{Duration, Instant};

use cavenet_bench::report::{self, num, obj};
use cavenet_core::{Experiment, Fidelity, Protocol, Scenario};
use cavenet_net::{FaultPlan, SimTime};
use cavenet_telemetry::{fnv64, json, ErrorEnvelope, Json, RunManifest};
use cavenet_testkit::{jam_ring_scenario, JAM_HEADWAY_M, JAM_SIM_SECS};

const REPORT_PATH: &str = "benchmarks/BENCH_fluid.json";

/// The `--check` gate point of the speedup sweep.
const GATE_NODES: usize = 10_000;

/// `--check` slack on the committed per-class absolute PDR error.
const PDR_ERROR_SLACK: f64 = 0.02;
/// `--check` slack on the committed per-class relative goodput error.
const GOODPUT_ERROR_SLACK: f64 = 0.05;

/// The conformance suite's trimmed Table 1 setup (40 s simulated, CBR
/// from 5 s to 25 s, three senders) — the same classes the golden
/// digests in `tests/golden/` pin.
fn conformance_scenario(protocol: Protocol, seed: u64) -> Scenario {
    let mut s = Scenario::paper_table1(protocol);
    s.sim_time = Duration::from_secs(40);
    s.traffic.cbr.start = Duration::from_secs(5);
    s.traffic.cbr.stop = Duration::from_secs(25);
    s.traffic.senders = vec![1, 2, 3];
    s.seed = seed;
    s
}

/// The fixed churn plan from `tests/conformance.rs`: two relay vehicles
/// crash mid-traffic and recover before the drain window ends.
fn fixed_churn_plan() -> FaultPlan {
    FaultPlan::new()
        .crash(SimTime::from_secs(10), 12)
        .recover(SimTime::from_secs(20), 12)
        .crash(SimTime::from_secs(15), 20)
        .recover(SimTime::from_secs(24), 20)
}

/// The accuracy classes: `(name, scenario)` in report order.
fn accuracy_classes() -> Vec<(&'static str, Scenario)> {
    let mut classes = vec![
        ("table1_aodv", conformance_scenario(Protocol::Aodv, 1)),
        ("table1_olsr", conformance_scenario(Protocol::Olsr, 1)),
        ("table1_dymo", conformance_scenario(Protocol::Dymo, 1)),
        ("table1_dsdv", conformance_scenario(Protocol::Dsdv, 1)),
        (
            "table1_flooding",
            conformance_scenario(Protocol::Flooding, 1),
        ),
    ];
    let mut fig11 = conformance_scenario(Protocol::Aodv, 1);
    fig11.traffic.senders = (1..=8).collect();
    classes.push(("fig11_aodv_8senders", fig11));
    let mut churn = conformance_scenario(Protocol::Aodv, 1);
    churn.fault_plan = fixed_churn_plan();
    classes.push(("table1_aodv_churn", churn));
    classes
}

/// One backend's view of a scenario: PDR, delivered goodput, wall time.
struct BackendRun {
    pdr: f64,
    goodput_bits: f64,
    wall_s: f64,
}

fn run_backend(scenario: &Scenario, fidelity: Fidelity) -> BackendRun {
    let mut s = scenario.clone();
    s.fidelity = fidelity;
    let t0 = Instant::now();
    let r = Experiment::new(s).run().expect("fidelity scenario runs");
    let wall_s = t0.elapsed().as_secs_f64();
    let goodput_bits: f64 = r
        .senders
        .iter()
        .map(|s| s.metrics.bytes_received as f64 * 8.0)
        .sum();
    BackendRun {
        pdr: r.mean_pdr(),
        goodput_bits,
        wall_s,
    }
}

/// Differential outcome of one accuracy class.
struct ClassDiff {
    name: &'static str,
    exact: BackendRun,
    fluid: BackendRun,
}

impl ClassDiff {
    fn abs_pdr_error(&self) -> f64 {
        (self.fluid.pdr - self.exact.pdr).abs()
    }

    /// Relative goodput error, on delivered bits. Exact zero-delivery
    /// classes fall back to the absolute fluid mass scaled to one packet,
    /// which no current class triggers.
    fn rel_goodput_error(&self) -> f64 {
        if self.exact.goodput_bits > 0.0 {
            (self.fluid.goodput_bits - self.exact.goodput_bits).abs() / self.exact.goodput_bits
        } else {
            self.fluid.goodput_bits
        }
    }

    fn speedup(&self) -> f64 {
        self.exact.wall_s / self.fluid.wall_s.max(1e-9)
    }

    fn to_json(&self) -> Json {
        obj(vec![
            ("exact_pdr", num(self.exact.pdr)),
            ("fluid_pdr", num(self.fluid.pdr)),
            ("abs_pdr_error", num(self.abs_pdr_error())),
            ("exact_goodput_bits", num(self.exact.goodput_bits)),
            ("fluid_goodput_bits", num(self.fluid.goodput_bits)),
            ("rel_goodput_error", num(self.rel_goodput_error())),
            ("exact_wall_s", num(self.exact.wall_s)),
            ("fluid_wall_s", num(self.fluid.wall_s)),
            ("speedup", num(self.speedup())),
        ])
    }
}

/// `--check`: compare measured errors and the gate speedup against the
/// committed report. Returns failures (empty = pass).
fn check_against_committed(path: &str, classes: &[ClassDiff], gate_speedup: f64) -> Vec<String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return vec![format!("cannot read committed baseline {path}: {e}")],
    };
    let parsed = match json::parse(&text) {
        Ok(j) => j,
        Err(e) => return vec![format!("cannot parse {path}: {e}")],
    };
    let mut failures = Vec::new();
    for class in classes {
        let committed = parsed.get("accuracy").and_then(|a| a.get(class.name));
        let Some(committed) = committed else {
            failures.push(format!("{path} lacks accuracy.{}", class.name));
            continue;
        };
        let bound = |key: &str| committed.get(key).and_then(Json::as_f64);
        match bound("abs_pdr_error") {
            Some(b) if class.abs_pdr_error() <= b + PDR_ERROR_SLACK => {}
            Some(b) => failures.push(format!(
                "{}: abs PDR error {:.4} exceeds committed {:.4} + {PDR_ERROR_SLACK} slack",
                class.name,
                class.abs_pdr_error(),
                b
            )),
            None => failures.push(format!(
                "{path} lacks accuracy.{}.abs_pdr_error",
                class.name
            )),
        }
        match bound("rel_goodput_error") {
            Some(b) if class.rel_goodput_error() <= b + GOODPUT_ERROR_SLACK => {}
            Some(b) => failures.push(format!(
                "{}: rel goodput error {:.4} exceeds committed {:.4} + {GOODPUT_ERROR_SLACK} slack",
                class.name,
                class.rel_goodput_error(),
                b
            )),
            None => failures.push(format!(
                "{path} lacks accuracy.{}.rel_goodput_error",
                class.name
            )),
        }
    }
    let committed_gate = parsed
        .get("speedup")
        .and_then(|s| s.get(&format!("nodes_{GATE_NODES}")))
        .and_then(|g| g.get("speedup"))
        .and_then(Json::as_f64);
    match committed_gate {
        Some(base) if base > 0.0 => {
            let ratio = gate_speedup / base;
            if ratio < 0.8 {
                failures.push(format!(
                    "gate point ({GATE_NODES} nodes): speedup regressed to {gate_speedup:.0}× \
                     ({:.0}% of committed {base:.0}×)",
                    ratio * 100.0
                ));
            }
        }
        _ => failures.push(format!("{path} lacks speedup.nodes_{GATE_NODES}.speedup")),
    }
    failures
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let check = std::env::args().any(|a| a == "--check");
    let sweep_nodes: &[usize] = if quick {
        &[GATE_NODES]
    } else {
        &[1_000, GATE_NODES, 30_000]
    };

    println!("# fidelity_report — fluid backend vs exact engine\n");

    // 1. Accuracy over the golden-fixture classes.
    let mut classes = Vec::new();
    for (name, scenario) in accuracy_classes() {
        let exact = run_backend(&scenario, Fidelity::Exact);
        let fluid = run_backend(&scenario, Fidelity::Fluid);
        let diff = ClassDiff { name, exact, fluid };
        println!(
            "{name:>22}: PDR {:.3} vs {:.3} (|err| {:.3}), goodput err {:>5.1}%, \
             {:>6.3} s vs {:>8.6} s ({:>6.1}×)",
            diff.exact.pdr,
            diff.fluid.pdr,
            diff.abs_pdr_error(),
            diff.rel_goodput_error() * 100.0,
            diff.exact.wall_s,
            diff.fluid.wall_s,
            diff.speedup(),
        );
        classes.push(diff);
    }
    let envelope = ErrorEnvelope {
        max_abs_pdr_error: classes
            .iter()
            .map(ClassDiff::abs_pdr_error)
            .fold(0.0, f64::max),
        max_rel_goodput_error: classes
            .iter()
            .map(ClassDiff::rel_goodput_error)
            .fold(0.0, f64::max),
    };
    println!(
        "\nerror envelope: max |PDR err| {:.4}, max rel goodput err {:.4}",
        envelope.max_abs_pdr_error, envelope.max_rel_goodput_error
    );

    // 2. Speedup sweep on the jam ring.
    println!();
    let mut sweep_members: Vec<(String, Json)> = Vec::new();
    let mut gate_speedup = 0.0;
    for &nodes in sweep_nodes {
        let scenario = jam_ring_scenario(nodes);
        let exact = run_backend(&scenario, Fidelity::Exact);
        let fluid = run_backend(&scenario, Fidelity::Fluid);
        let speedup = exact.wall_s / fluid.wall_s.max(1e-9);
        println!(
            "jam ring {nodes:>7} nodes: exact {:>7.3} s, fluid {:>9.6} s — {speedup:>7.1}×",
            exact.wall_s, fluid.wall_s
        );
        if nodes == GATE_NODES {
            gate_speedup = speedup;
        }
        sweep_members.push((
            format!("nodes_{nodes}"),
            obj(vec![
                ("exact_wall_s", num(exact.wall_s)),
                ("fluid_wall_s", num(fluid.wall_s)),
                ("speedup", num(speedup)),
                ("exact_pdr", num(exact.pdr)),
                ("fluid_pdr", num(fluid.pdr)),
            ]),
        ));
    }

    // `--check` verdict against the committed report, before overwriting.
    let failures = check.then(|| check_against_committed(REPORT_PATH, &classes, gate_speedup));

    let reference = conformance_scenario(Protocol::Aodv, 1);
    let mut manifest = RunManifest::new("fidelity_report");
    manifest.scenario_hash = fnv64(format!("{:?}", reference.protocol).as_bytes());
    manifest.fault_plan_hash = fnv64(reference.fault_plan.render().as_bytes());
    manifest.seed = reference.seed;
    manifest.crate_versions = cavenet_telemetry::base_crate_versions();
    manifest
        .crate_versions
        .push(("cavenet-bench".into(), env!("CARGO_PKG_VERSION").into()));
    manifest.set_backend(Fidelity::Fluid.name());
    manifest.set_error_envelope(envelope);

    if let Some(dir) = std::path::Path::new(REPORT_PATH).parent() {
        std::fs::create_dir_all(dir).expect("create benchmarks dir");
    }
    report::write_report(
        REPORT_PATH,
        &manifest,
        vec![
            (
                "workload".into(),
                obj(vec![
                    ("classes", Json::num_u64(classes.len() as u64)),
                    ("jam_headway_m", num(JAM_HEADWAY_M)),
                    ("jam_sim_secs", Json::num_u64(JAM_SIM_SECS)),
                    ("quick", Json::Bool(quick)),
                ]),
            ),
            (
                "accuracy".into(),
                Json::Obj(
                    classes
                        .iter()
                        .map(|c| (c.name.to_string(), c.to_json()))
                        .collect(),
                ),
            ),
            ("speedup".into(), Json::Obj(sweep_members)),
        ],
    );

    if let Some(failures) = failures {
        if failures.is_empty() {
            println!(
                "\n--check: error bounds hold and the gate-point speedup is within 20% \
                 of the committed baseline"
            );
        } else {
            eprintln!("\n--check FAILED:");
            for f in &failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
    }
}
