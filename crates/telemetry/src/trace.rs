//! Structured event tracing: schema-versioned JSONL with sampling and
//! per-category filters.
//!
//! Every simulation event the [`TelemetryObserver`](crate::TelemetryObserver)
//! sees can be streamed as one JSON line carrying the schema version,
//! category, event code, virtual time, node and span id (the packet uid or
//! event sequence number that ties related lines together). A full trace
//! of a 100 s, 30-node run is millions of lines, so the tracer bounds its
//! output three ways: per-category enable flags, stride sampling (keep one
//! in N records per category) and a hard record cap. Suppressed records
//! are *counted*, never silently lost, and never built: the tracer decides
//! admission before the caller constructs the record.

use crate::json::{parse, Json};

/// Version stamped into every trace line as `"v"`. Bump when the line
/// schema changes shape.
pub const TRACE_SCHEMA_VERSION: u64 = 1;

/// Trace record categories, each independently filterable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceCategory {
    /// Event scheduling (very high volume; off by default).
    Sched,
    /// Frame-level PHY/MAC activity: tx, rx, in-flight drops.
    Frame,
    /// Packet-level fates: originated, delivered, dropped.
    Packet,
    /// MAC DCF state transitions.
    Mac,
    /// Route-discovery milestones.
    Route,
    /// Fault injection (crashes, recoveries).
    Fault,
}

impl TraceCategory {
    /// Number of categories.
    pub const COUNT: usize = 6;

    /// All categories, in declaration order.
    pub const ALL: [TraceCategory; TraceCategory::COUNT] = [
        TraceCategory::Sched,
        TraceCategory::Frame,
        TraceCategory::Packet,
        TraceCategory::Mac,
        TraceCategory::Route,
        TraceCategory::Fault,
    ];

    /// Stable name used in the `"cat"` field.
    pub fn name(self) -> &'static str {
        match self {
            TraceCategory::Sched => "sched",
            TraceCategory::Frame => "frame",
            TraceCategory::Packet => "packet",
            TraceCategory::Mac => "mac",
            TraceCategory::Route => "route",
            TraceCategory::Fault => "fault",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<TraceCategory> {
        TraceCategory::ALL.into_iter().find(|c| c.name() == name)
    }
}

/// What the tracer records and how aggressively it samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Per-category enables, indexed by `TraceCategory as usize`.
    pub enabled: [bool; TraceCategory::COUNT],
    /// Keep one in `stride` records per category (1 = keep all).
    pub stride: u64,
    /// Hard cap on emitted records; further records are counted as
    /// truncated.
    pub max_records: usize,
}

impl Default for TraceConfig {
    /// The bounded default: everything except the scheduling firehose,
    /// stride 1, capped at 200 000 records (≈20 MB of JSONL) — enough to
    /// hold the interesting categories of the paper's 100 s / 30-node
    /// scenario without unbounded growth.
    fn default() -> Self {
        let mut enabled = [true; TraceCategory::COUNT];
        enabled[TraceCategory::Sched as usize] = false;
        TraceConfig {
            enabled,
            stride: 1,
            max_records: 200_000,
        }
    }
}

impl TraceConfig {
    /// Record everything, unsampled and uncapped. For tests and short
    /// runs only.
    pub fn full() -> Self {
        TraceConfig {
            enabled: [true; TraceCategory::COUNT],
            stride: 1,
            max_records: usize::MAX,
        }
    }

    /// Record nothing (metrics still work).
    pub fn off() -> Self {
        TraceConfig {
            enabled: [false; TraceCategory::COUNT],
            stride: 1,
            max_records: 0,
        }
    }

    /// Builder-style stride (clamped to ≥ 1).
    pub fn with_stride(mut self, stride: u64) -> Self {
        self.stride = stride.max(1);
        self
    }
}

/// The body of one trace line; its category is given to
/// [`Tracer::record`] beside it.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Short event code within the category ("tx", "drop", ...).
    pub event: &'static str,
    /// Virtual time in nanoseconds.
    pub t_ns: u64,
    /// The node the record concerns.
    pub node: u64,
    /// Span id tying related records together: the packet uid for
    /// packet/frame records, the event sequence number for sched records,
    /// the destination node for route records.
    pub span: u64,
    /// Category-specific extra members, appended verbatim to the line.
    pub extra: Vec<(&'static str, Json)>,
}

/// The same record with owned strings, as reconstructed by
/// [`Tracer::parse_line`].
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedRecord {
    /// Record category.
    pub category: TraceCategory,
    /// Short event code within the category.
    pub event: String,
    /// Virtual time in nanoseconds.
    pub t_ns: u64,
    /// The node the record concerns.
    pub node: u64,
    /// Span id tying related records together.
    pub span: u64,
}

/// Collects trace records as JSONL lines, applying the configured
/// filters. Suppression is accounted: `emitted + filtered + sampled_out +
/// truncated` equals the number of records offered.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    config: TraceConfig,
    lines: Vec<String>,
    seen: [u64; TraceCategory::COUNT],
    emitted: u64,
    filtered: u64,
    sampled_out: u64,
    truncated: u64,
}

impl Tracer {
    /// A tracer with the given configuration.
    pub fn new(config: TraceConfig) -> Self {
        Tracer {
            config,
            ..Tracer::default()
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// Offer a record of `category`; it is emitted, filtered, sampled out
    /// or truncated. `build` runs only for an emitted record, so a record
    /// the configuration suppresses costs a counter increment.
    pub fn record(&mut self, category: TraceCategory, build: impl FnOnce() -> TraceRecord) {
        if !self.config.enabled[category as usize] {
            self.filtered += 1;
            return;
        }
        let seen = &mut self.seen[category as usize];
        *seen += 1;
        if !(*seen - 1).is_multiple_of(self.config.stride) {
            self.sampled_out += 1;
            return;
        }
        if self.lines.len() >= self.config.max_records {
            self.truncated += 1;
            return;
        }
        let rec = build();
        let mut members = vec![
            ("v".to_string(), Json::num_u64(TRACE_SCHEMA_VERSION)),
            ("cat".to_string(), Json::str(category.name())),
            ("ev".to_string(), Json::str(rec.event)),
            ("t".to_string(), Json::num_u64(rec.t_ns)),
            ("node".to_string(), Json::num_u64(rec.node)),
            ("span".to_string(), Json::num_u64(rec.span)),
        ];
        for (k, v) in rec.extra {
            members.push((k.to_string(), v));
        }
        self.lines.push(Json::Obj(members).render());
        self.emitted += 1;
    }

    /// Emitted JSONL lines, in emission order.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// Records emitted.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Records rejected by a category filter.
    pub fn filtered(&self) -> u64 {
        self.filtered
    }

    /// Records skipped by stride sampling.
    pub fn sampled_out(&self) -> u64 {
        self.sampled_out
    }

    /// Records lost to the `max_records` cap.
    pub fn truncated(&self) -> u64 {
        self.truncated
    }

    /// Decode one JSONL line back into its core fields.
    ///
    /// # Errors
    ///
    /// Returns a message when the line is not valid JSON, carries an
    /// unknown schema version or category, or misses a required member.
    pub fn parse_line(line: &str) -> Result<ParsedRecord, String> {
        let json = parse(line)?;
        let version = json
            .get("v")
            .and_then(Json::as_u64)
            .ok_or("missing schema version")?;
        if version != TRACE_SCHEMA_VERSION {
            return Err(format!("unsupported trace schema version {version}"));
        }
        let category = json
            .get("cat")
            .and_then(Json::as_str)
            .and_then(TraceCategory::from_name)
            .ok_or("missing or unknown category")?;
        let event = json
            .get("ev")
            .and_then(Json::as_str)
            .ok_or("missing event code")?
            .to_string();
        let field = |name: &str| {
            json.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing numeric member {name:?}"))
        };
        Ok(ParsedRecord {
            category,
            event,
            t_ns: field("t")?,
            node: field("node")?,
            span: field("span")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ev: &'static str, span: u64) -> TraceRecord {
        TraceRecord {
            event: ev,
            t_ns: 1_000,
            node: 3,
            span,
            extra: Vec::new(),
        }
    }

    #[test]
    fn emits_and_round_trips() {
        let mut t = Tracer::new(TraceConfig::full());
        t.record(TraceCategory::Packet, || TraceRecord {
            extra: vec![("reason", Json::str("no_route"))],
            ..rec("drop", 42)
        });
        assert_eq!(t.emitted(), 1);
        let parsed = Tracer::parse_line(&t.lines()[0]).unwrap();
        assert_eq!(parsed.category, TraceCategory::Packet);
        assert_eq!(parsed.event, "drop");
        assert_eq!(parsed.span, 42);
    }

    #[test]
    fn category_filter_counts_suppressed() {
        let mut t = Tracer::new(TraceConfig::default());
        t.record(TraceCategory::Sched, || rec("sched", 1));
        assert_eq!(t.emitted(), 0);
        assert_eq!(t.filtered(), 1);
    }

    #[test]
    fn stride_keeps_one_in_n_per_category() {
        let mut t = Tracer::new(TraceConfig::full().with_stride(3));
        for i in 0..9 {
            t.record(TraceCategory::Frame, || rec("tx", i));
        }
        assert_eq!(t.emitted(), 3);
        assert_eq!(t.sampled_out(), 6);
    }

    #[test]
    fn cap_truncates_but_counts() {
        let mut t = Tracer::new(TraceConfig {
            max_records: 2,
            ..TraceConfig::full()
        });
        for i in 0..5 {
            t.record(TraceCategory::Mac, || rec("move", i));
        }
        assert_eq!(t.emitted(), 2);
        assert_eq!(t.truncated(), 3);
        assert_eq!(t.lines().len(), 2);
    }

    #[test]
    fn suppressed_records_are_never_built() {
        let mut built = 0;
        for config in [
            TraceConfig::off(),
            TraceConfig::full().with_stride(u64::MAX),
            TraceConfig {
                max_records: 0,
                ..TraceConfig::full()
            },
        ] {
            let mut t = Tracer::new(config);
            for i in 0..4 {
                t.record(TraceCategory::Frame, || {
                    built += 1;
                    rec("tx", i)
                });
            }
            assert_eq!(
                t.emitted() + t.filtered() + t.sampled_out() + t.truncated(),
                4,
                "every offered record is accounted"
            );
        }
        // Stride u64::MAX keeps only the first record of the category.
        assert_eq!(built, 1);
    }

    #[test]
    fn rejects_foreign_schema_version() {
        assert!(
            Tracer::parse_line(r#"{"v":99,"cat":"mac","ev":"x","t":0,"node":0,"span":0}"#).is_err()
        );
    }
}
