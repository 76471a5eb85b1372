//! Criterion bench: full Table-1-style scenario cost per protocol — this is
//! the harness behind Figs. 8–11, shrunk to a 20 s run so `cargo bench`
//! stays fast while preserving relative protocol costs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use cavenet_core::{Experiment, Protocol, Scenario};

fn short_scenario(protocol: Protocol) -> Scenario {
    let mut s = Scenario::paper_table1(protocol);
    s.sim_time = Duration::from_secs(20);
    s.traffic.cbr.start = Duration::from_secs(2);
    s.traffic.cbr.stop = Duration::from_secs(18);
    s.traffic.senders = vec![1, 2, 3, 4];
    s
}

fn bench_protocols(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol_scenario_20s");
    group.sample_size(10);
    // OLSR-ETX skips fewer link-state recomputations than hop-count OLSR:
    // its link costs move as HELLOs enter and leave the LQ window.
    for p in [
        Protocol::Aodv,
        Protocol::Olsr,
        Protocol::OlsrEtx,
        Protocol::Dymo,
        Protocol::Dsdv,
        Protocol::Flooding,
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, &p| {
            b.iter(|| {
                let r = Experiment::new(short_scenario(p)).run().unwrap();
                black_box(r.total_received())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_protocols);
criterion_main!(benches);
