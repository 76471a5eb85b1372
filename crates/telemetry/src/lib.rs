//! # cavenet-telemetry — observability for the CAVENET engine
//!
//! Everything in this crate hangs off the zero-cost
//! [`SimObserver`](cavenet_net::SimObserver) hooks:
//!
//! * a **metrics registry** ([`MetricsRegistry`]) of typed counters,
//!   gauges and log-scale histograms in fixed slots — recording is an
//!   array index, snapshots are deterministic;
//! * a **structured tracer** ([`Tracer`]) streaming simulation events as
//!   schema-versioned JSONL, bounded by per-category filters, stride
//!   sampling and a record cap;
//! * a **phase profiler** ([`PhaseProfiler`]) attributing wall-clock time
//!   to engine phases (PHY, MAC, routing, application, faults, mobility);
//! * a **run manifest** ([`RunManifest`]) stamping scenario/fault-plan
//!   hashes, the seed, crate versions and tier timings into every report.
//!
//! [`TelemetryObserver`] drives the first three from one observer
//! implementation. It is monomorphized into the simulator like any other
//! observer: attaching it costs hook dispatch only, and the simulation it
//! watches stays byte-identical — the conformance testkit's golden digests
//! hold with and without it.
//!
//! The **streaming plane** ([`stream`]) makes telemetry live: a
//! [`StreamProbe`] publishes registry snapshots from inside a running
//! trial onto a [`SnapshotBus`], a [`CampaignAggregator`] merges them
//! mid-flight, and two sinks render the result — the schema-versioned
//! JSONL campaign feed ([`SnapshotEnvelope::render_line`]) and a
//! Prometheus-style plain-text exposition ([`render_prometheus`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod expo;
pub mod json;
mod manifest;
mod metrics;
mod observer;
mod profile;
pub mod stream;
mod trace;

pub use expo::render_prometheus;
pub use json::Json;
pub use manifest::{
    base_crate_versions, fnv64, ErrorEnvelope, RunManifest, MANIFEST_SCHEMA_VERSION,
};
pub use metrics::{Counter, Gauge, Histogram, HistogramId, MetricsRegistry};
pub use observer::{drop_reason_name, TelemetryObserver};
pub use profile::{Phase, PhaseProfiler};
pub use stream::{
    CampaignAggregator, SnapshotBus, SnapshotEnvelope, SnapshotPublisher, StreamProbe,
    STREAM_SCHEMA_VERSION,
};
pub use trace::{
    ParsedRecord, TraceCategory, TraceConfig, TraceRecord, Tracer, TRACE_SCHEMA_VERSION,
};
