//! Metric names, units and the values behind them.
//!
//! End-to-end metrics come from untraced runs. Per-layer metrics come
//! from the traced run; counts are means per traced trial, and a layer's
//! time is its `*_share` of traced trial wall time (`bench.traced_trial_s`
//! gives the absolute scale), so every layer reads on every workload, as
//! 0 where the workload bypasses it.

use cavenet_telemetry::Json;

use crate::ledger::{Ledger, EVENT_KINDS, PROTOCOLS, ROUTING_METHODS};

#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

pub fn to_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let value = Json::Obj(vec![
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::str(m.unit)),
                ]);
                (m.name.clone(), value)
            })
            .collect(),
    )
}

/// Median of `values` in seconds (`values` in nanoseconds); 0 if empty.
fn median_s(values: &[u64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2] as f64 * 1e-9,
        n => (v[n / 2 - 1] + v[n / 2]) as f64 * 0.5e-9,
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// `wall_s` is one whole op-set cycle and `op_s_p50` its median op, from
/// each op's best time (`best_op_ns`); `setup_s` is the median trial (or
/// batch) set-up and `peak_rss_mb` the peak resident set of the first op.
pub fn end_to_end(
    cycle_ns: f64,
    best_op_ns: &[u64],
    setup_ns: &[u64],
    peak_rss_mb: f64,
) -> Vec<Metric> {
    vec![
        Metric::new("wall_s", cycle_ns * 1e-9, "s"),
        Metric::new("op_s_p50", median_s(best_op_ns), "s"),
        Metric::new("setup_s", median_s(setup_ns), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
    ]
}

pub fn per_layer(l: &Ledger) -> Vec<Metric> {
    let trials = l.trials.max(1) as f64;
    let batch_trials = l.batch_trials.max(1) as f64;
    let traced_ns = l.traced_ns as f64;
    let per = |v: u64| v as f64 / trials;
    let share = |ns: f64| ratio(ns, traced_ns);
    let w = &l.wrappers;
    let c = &l.clock;
    let events: u64 = c.kinds.iter().map(|k| k.n).sum();
    let frames_dropped = c.dropped_collision + c.dropped_below_threshold;
    let mut m = vec![
        Metric::new("bench.traced_trial_s", traced_ns / trials * 1e-9, "s"),
        Metric::new(
            "bench.trace_overhead",
            ratio(l.engine_ns as f64, l.untraced_ns as f64),
            "ratio",
        ),
        Metric::new("mobility.trace_build_s", per(l.trace_build_ns) * 1e-9, "s"),
        Metric::new("mobility.position_calls", per(w.position_calls), "count"),
        Metric::new("mobility.position_share", share(w.position_ns()), "ratio"),
        Metric::new("core.engine_build_s", per(l.engine_build_ns) * 1e-9, "s"),
        Metric::new("core.collect_s", per(l.collect_ns) * 1e-9, "s"),
        Metric::new("net.events", per(events), "count"),
        Metric::new("net.run_share", share(l.run_ns as f64), "ratio"),
        Metric::new(
            "net.events_per_s",
            ratio(events as f64, l.run_ns as f64 * 1e-9),
            "1/s",
        ),
    ];
    for (name, k) in EVENT_KINDS.iter().zip(c.kinds) {
        m.push(Metric::new(format!("net.{name}.n"), per(k.n), "count"));
        m.push(Metric::new(
            format!("net.{name}.self_share"),
            share(k.self_ns as f64),
            "ratio",
        ));
    }
    m.extend([
        Metric::new("net.frames_tx", per(c.frames_tx), "count"),
        Metric::new("net.frames_rx", per(c.frames_rx), "count"),
        Metric::new(
            "net.frames_dropped.collision",
            per(c.dropped_collision),
            "count",
        ),
        Metric::new(
            "net.frames_dropped.below_threshold",
            per(c.dropped_below_threshold),
            "count",
        ),
        Metric::new(
            "net.decode_ratio",
            ratio(c.frames_rx as f64, (c.frames_rx + frames_dropped) as f64),
            "ratio",
        ),
        Metric::new("net.mac.retries", per(l.mac_retries), "count"),
        Metric::new("net.mac.retry_drops", per(l.mac_retry_drops), "count"),
        Metric::new("net.mac.queue_drops", per(l.mac_queue_drops), "count"),
        Metric::new("net.mac.queue_hwm_max", l.mac_queue_hwm_max as f64, "count"),
        Metric::new("net.data_drops", per(l.data_drops), "count"),
    ]);
    for (p, t) in PROTOCOLS.iter().zip(w.protocols) {
        let name = p.to_string().to_lowercase();
        m.push(Metric::new(
            format!("routing.{name}.calls"),
            per(t.n),
            "count",
        ));
        m.push(Metric::new(
            format!("routing.{name}.self_share"),
            share(t.ns as f64),
            "ratio",
        ));
    }
    for (name, t) in ROUTING_METHODS.iter().zip(w.methods) {
        m.push(Metric::new(format!("routing.{name}.n"), per(t.n), "count"));
        m.push(Metric::new(
            format!("routing.{name}.share"),
            share(t.ns as f64),
            "ratio",
        ));
    }
    let probe_ns = l.fluid_probe_ns.iter().sum::<u64>() as f64;
    m.extend([
        Metric::new("routing.control_packets", per(l.control_packets), "count"),
        Metric::new("routing.control_bytes", per(l.control_bytes), "B"),
        Metric::new("routing.discovery_starts", per(c.discovery_starts), "count"),
        Metric::new(
            "routing.discovery_success_ratio",
            ratio(c.discovery_successes as f64, c.discovery_starts as f64),
            "ratio",
        ),
        Metric::new("traffic.app.calls", per(w.app.n), "count"),
        Metric::new("traffic.app.share", share(w.app.ns as f64), "ratio"),
        Metric::new("traffic.sent", per(l.sent), "count"),
        Metric::new("traffic.received", per(l.received), "count"),
        Metric::new(
            "traffic.pdr",
            ratio(l.received as f64, l.sent as f64),
            "ratio",
        ),
        Metric::new("fluid.steps", per(l.fluid_steps), "count"),
        Metric::new("fluid.step_share", share(l.fluid_step_ns as f64), "ratio"),
        Metric::new("fluid.cells", per(l.fluid_cells), "count"),
    ]);
    for (name, ns) in ["sample", "bin", "integrate", "bfs"]
        .iter()
        .zip(l.fluid_probe_ns)
    {
        m.push(Metric::new(
            format!("fluid.probe.{name}_share"),
            ratio(ns as f64, probe_ns),
            "ratio",
        ));
    }
    m.extend([
        Metric::new("checkpoint.snapshots", per(l.snapshots), "count"),
        Metric::new(
            "checkpoint.capture_share",
            share(l.capture_ns as f64),
            "ratio",
        ),
        Metric::new(
            "checkpoint.encode_share",
            share(l.encode_ns as f64),
            "ratio",
        ),
        Metric::new("checkpoint.write_share", share(l.write_ns as f64), "ratio"),
        Metric::new(
            "checkpoint.restore_share",
            share(l.restore_ns as f64),
            "ratio",
        ),
        Metric::new(
            "checkpoint.bytes",
            ratio(l.snapshot_bytes as f64, l.snapshots as f64),
            "B",
        ),
        Metric::new(
            "checkpoint.dir_bytes",
            l.dir_bytes as f64 / batch_trials,
            "B",
        ),
        Metric::new(
            "server.overhead_ratio",
            ratio(l.supervised_ns as f64, l.straight_ns as f64),
            "ratio",
        ),
        Metric::new("server.digest_matches", l.digest_matches as f64, "count"),
        Metric::new("server.trial_retries", l.trial_retries as f64, "count"),
        Metric::new("server.watchdog_stalls", l.watchdog_stalls as f64, "count"),
        Metric::new("server.trials_lost", l.trials_lost as f64, "count"),
        Metric::new("server.admission_sheds", l.admission_sheds as f64, "count"),
        Metric::new(
            "telemetry.snapshots",
            l.stream_snapshots as f64 / batch_trials,
            "count",
        ),
        Metric::new(
            "telemetry.feed_bytes",
            l.feed_bytes as f64 / batch_trials,
            "B",
        ),
        Metric::new("telemetry.shed", l.stream_shed as f64, "count"),
        Metric::new(
            "telemetry.stream_cost_ratio",
            ratio(l.supervised_ns as f64, l.unstreamed_ns as f64),
            "ratio",
        ),
    ]);
    m
}
