//! Allocation density of the flat-memory engine.
//!
//! The engine recycles its reception tables, frames and grid buffers, and a
//! serial run makes the same number of heap allocations on every run, in
//! debug and release alike. This binary installs a counting global
//! allocator, runs six fixed workloads and pins, per workload, the event
//! count and an allocation ceiling of 1.2 × the committed allocations per
//! event. Five run unobserved; one runs under the observer stack of a
//! streamed campaign trial (an armed stream probe beside the golden
//! digest), which pins that a hook whose trace record is filtered out
//! allocates nothing. Wall-clock speed is the repository benchmark's
//! business, not this test's.
//!
//! The allocation counter is process-wide, so this binary holds exactly
//! one test: no other test can allocate while a workload is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use cavenet_core::net::{GoldenDigest, Tee};
use cavenet_core::{Experiment, Protocol, Scenario};
use cavenet_telemetry::{SnapshotBus, StreamProbe};

/// Counts every heap allocation the process makes.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the only addition is a relaxed
// counter increment on the allocation paths.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Headroom over the committed allocations per event.
const ALLOCS_PER_EVENT_SLACK: f64 = 1.2;

/// The Table-1 scenario trimmed to 40 s with three senders — the same
/// shape as the conformance suite's golden scenario.
fn table1_40s(protocol: Protocol) -> Scenario {
    let mut s = Scenario::paper_table1(protocol);
    s.sim_time = Duration::from_secs(40);
    s.traffic.cbr.start = Duration::from_secs(5);
    s.traffic.cbr.stop = Duration::from_secs(25);
    s.traffic.senders = vec![1, 2, 3];
    s.seed = 1;
    s
}

/// The paper's ring scaled by `factor` at constant vehicle density, with
/// TTL-flooded CBR traffic: every node rebroadcasts every data packet, so
/// per-receiver delivery work is the whole run.
fn flood_ring(factor: usize) -> Scenario {
    let mut s = Scenario::paper_table1(Protocol::Flooding);
    s.nodes = 30 * factor;
    s.circuit_m = 3000.0 * factor as f64;
    s.sim_time = Duration::from_secs(6);
    s.traffic.cbr.start = Duration::from_secs(2);
    s.traffic.cbr.stop = Duration::from_secs(4);
    s.traffic.cbr.rate_pps = 20.0;
    s.traffic.senders = (1u32..=8).map(|k| (k * s.nodes as u32) / 9).collect();
    s.traffic.receiver = 0;
    s
}

/// Events between the stream probe's snapshots, as in a campaign.
const SNAPSHOT_STRIDE: u64 = 4096;

/// How a workload's run is observed.
#[derive(Clone, Copy)]
enum Observer {
    /// `Experiment::run`: no observer.
    Bare,
    /// A streamed campaign trial's stack: an armed `StreamProbe`
    /// publishing every [`SNAPSHOT_STRIDE`] events, tee'd with the golden
    /// digest.
    Streamed,
}

/// `(workload, scenario, observer, events, committed allocations)`. The
/// bare rows' committed allocation counts are the flat-memory engine's as
/// first recorded; the ceiling scales their per-event rate by the run's
/// event count. The engine has since dropped to 4,401, 6,930, 11,134,
/// 14,028 and 14,442 (4,510, 7,035, 11,306, 14,385 and 14,835 with the
/// calendar queue of sorted runs that reception tables replaced). The
/// streamed row was first recorded once filtered trace records stopped
/// being built; while every hook built its record, the same run made
/// 79,168 allocations (1.40 per event). It now makes 4,430 (4,539 with
/// sorted runs).
fn workloads() -> Vec<(&'static str, Scenario, Observer, u64, u64)> {
    use Observer::{Bare, Streamed};
    let table1 = table1_40s(Protocol::Aodv);
    let mut fig11 = table1.clone();
    fig11.traffic.senders = (1..=8).collect();
    vec![
        ("table1_aodv", table1.clone(), Bare, 56_648, 4_920),
        ("table1_aodv_streamed", table1, Streamed, 56_648, 4_762),
        ("fig11_aodv_8senders", fig11, Bare, 163_053, 7_533),
        ("flood_ring_120", flood_ring(4), Bare, 276_699, 14_261),
        ("flood_ring_480", flood_ring(16), Bare, 311_785, 24_837),
        ("flood_ring_960", flood_ring(32), Bare, 290_633, 26_040),
    ]
}

/// Run `experiment` to its end under `observer`; returns the events the
/// engine dispatched.
fn run(experiment: &Experiment, observer: Observer) -> u64 {
    let result = match observer {
        Observer::Bare => experiment.run(),
        Observer::Streamed => {
            let bus = SnapshotBus::new(4096);
            let probe = StreamProbe::armed(bus.publisher("trial"), SNAPSHOT_STRIDE);
            experiment
                .run_with_observer(Tee(probe, GoldenDigest::new()))
                .map(|(result, _sim)| result)
        }
    };
    result.expect("workload runs").global.events_processed
}

#[test]
fn allocations_per_event_stay_within_the_committed_budget() {
    let mut failures = Vec::new();
    for (name, scenario, observer, pinned_events, committed_allocs) in workloads() {
        let experiment = Experiment::new(scenario);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let events = run(&experiment, observer);
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(events, pinned_events, "{name}: event count moved");
        let committed_per_event = committed_allocs as f64 / pinned_events as f64;
        let ceiling = ALLOCS_PER_EVENT_SLACK * committed_per_event * events as f64;
        if allocations as f64 > ceiling {
            failures.push(format!(
                "{name}: {allocations} allocations over {events} events \
                 ({:.4}/event) exceed {ALLOCS_PER_EVENT_SLACK} × committed \
                 {committed_per_event:.4}/event",
                allocations as f64 / events as f64
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
