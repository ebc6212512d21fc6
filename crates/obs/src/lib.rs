//! Privacy-safe telemetry for the LDP collection pipeline.
//!
//! The ClientPool → IngestPipeline → ShardedAggregator path is operated as
//! a long-running service, and an operator (or the perf harness) needs to
//! see queue pressure, stage timings and checkpoint costs while a round is
//! in flight. This crate is the substrate: a [`MetricsRegistry`] of
//! atomically-updated instruments behind cheap cloneable handles —
//! [`Counter`], [`Gauge`] and power-of-two-bucketed [`Histogram`] — plus a
//! [`Span`] timer that records a duration into a histogram on drop, and two
//! deterministic exporters (a schema-validated JSON snapshot, see
//! `docs/OBS_FORMAT.md`, and a human-readable text table).
//!
//! # Privacy stance
//!
//! Telemetry must never become a side channel. The API enforces the two
//! load-bearing rules structurally, and `ldp_lint` rule P004 backstops the
//! rest:
//!
//! * **Names and labels are `&'static str`.** There is no way to build a
//!   metric name or label from runtime data, so a user value can never be
//!   smuggled into the key space.
//! * **Instrument values are operational quantities** — durations, byte
//!   counts, queue depths, report *counts*. Raw report payloads, support
//!   sets and memoized protocol state must not flow into `record`/`inc_by`
//!   arguments in privacy crates; P004 flags exactly that taint.
//!
//! # Determinism
//!
//! Snapshot export is a pure function of the registry contents: samples
//! are sorted by `(name, label, index)`, numbers are unsigned integers,
//! and the snapshot body carries no wall-clock timestamps (run metadata is
//! caller-injected). Two identical runs export byte-identical documents —
//! the same discipline as the harness's `<name>.sweep.json` documents.
//!
//! ```
//! use ldp_obs::{MetricsRegistry, Span};
//!
//! let reg = MetricsRegistry::new();
//! let routed = reg.counter_indexed("ldp.ingest.pipeline.reports_routed", 0);
//! routed.inc_by(3);
//! let save_ns = reg.histogram("ldp.ingest.store.save_ns");
//! {
//!     let _timed = Span::enter(&save_ns); // records elapsed ns on drop
//! }
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter_total("ldp.ingest.pipeline.reports_routed"), 3);
//! assert_eq!(snap.hist_count("ldp.ingest.store.save_ns"), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
pub mod json;
mod registry;

pub use export::{
    validate_snapshot_str, MetricSample, MetricValue, ObsSnapshot, OBS_SCHEMA, OBS_SUITE,
};
pub use registry::{Counter, Gauge, Histogram, MetricsRegistry, Span, HIST_BUCKETS};
