//! # cavenet-telemetry — observability for the CAVENET engine
//!
//! * a **metrics registry** ([`MetricsRegistry`]) of typed counters,
//!   gauges and log-scale histograms in fixed slots — recording is an
//!   array index, snapshots are deterministic;
//! * a **streaming plane** ([`stream`]): a [`StreamProbe`] fills a
//!   trial's registry from the zero-cost
//!   [`SimObserver`](cavenet_net::SimObserver) hooks and publishes
//!   snapshots of it from inside the running trial onto a
//!   [`SnapshotBus`], a [`CampaignAggregator`] merges them mid-flight, and
//!   two sinks render the result — the schema-versioned JSONL campaign
//!   feed ([`SnapshotEnvelope::render_line`]) and a Prometheus-style
//!   plain-text exposition ([`render_prometheus`]);
//! * a **run manifest** ([`RunManifest`]) stamping scenario/fault-plan
//!   hashes, the seed, crate versions and tier timings into every report.
//!
//! The probe is monomorphized into the simulator like any other observer:
//! attaching it costs hook dispatch only, and the simulation it watches
//! stays byte-identical — the observability suite's golden digests hold
//! with and without it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod expo;
pub mod json;
mod manifest;
mod metrics;
pub mod stream;

use cavenet_net::DropReason;

pub use expo::render_prometheus;
pub use json::Json;
pub use manifest::{
    base_crate_versions, fnv64, ErrorEnvelope, RunManifest, MANIFEST_SCHEMA_VERSION,
};
pub use metrics::{Counter, Gauge, Histogram, HistogramId, MetricsRegistry};
pub use stream::{
    CampaignAggregator, SnapshotBus, SnapshotEnvelope, SnapshotPublisher, StreamProbe,
    STREAM_SCHEMA_VERSION,
};

/// Stable snake_case name of a packet-drop reason.
pub fn drop_reason_name(r: DropReason) -> &'static str {
    match r {
        DropReason::QueueOverflow => "queue_overflow",
        DropReason::RetryLimit => "retry_limit",
        DropReason::NoRoute => "no_route",
        DropReason::TtlExpired => "ttl_expired",
        DropReason::QueueTimeout => "queue_timeout",
        DropReason::DiscoveryFailed => "discovery_failed",
        DropReason::NodeDown => "node_down",
        _ => "unknown",
    }
}
