//! `netart-obs` — the observability layer of the `netart` pipeline.
//!
//! Three pieces, all free of global state:
//!
//! * a [`Metrics`] registry (counters + log-2 histograms) that the
//!   `Generator` owns per run and freezes into a [`MetricsSnapshot`]
//!   on the outcome — counters are deterministic for a given input,
//!   histograms absorb the wall-clock observations;
//! * the [`RunReport`] schema (versioned, golden-file pinned): network
//!   size, per-phase wall times, per-net router effort, degradation
//!   context, §4.4 quality metrics and the metrics snapshot, rendered
//!   through the hand-rolled [`json::Json`] writer;
//! * `tracing` subscribers ([`TextSubscriber`], [`JsonLinesSubscriber`],
//!   the Chrome trace-event recorder [`TraceEventSubscriber`] and the
//!   composing [`FanoutSubscriber`]) that turn the spans and events the
//!   phase crates emit into stderr streams or trace files — installed
//!   by the CLI, never by library code;
//! * the cross-run layer: [`Json::parse`] reads written reports back,
//!   and [`baseline`]'s [`ReportDiff`] compares two [`RunReport`]s so
//!   `netart report diff` and the CI perf-gate can fail on regressions;
//! * the live layer: a process-lifetime [`Telemetry`] registry
//!   (counters, gauges, rolling-window histograms) with Prometheus
//!   text exposition behind `netart serve`'s `/metrics`, and the
//!   [`ProfileReport`] heat-map schema behind `netart profile`;
//! * the post-mortem layer: the [`FlightRecorder`] ring subscriber
//!   whose [`BlackboxDump`]s freeze the last moments before a panic,
//!   deadline breach, or SIGUSR1, and the [`alloc`] profiler that
//!   attributes heap traffic to phases when the `alloc-profile`
//!   feature is on.
//!
//! The span/event vocabulary itself lives in the vendored `tracing`
//! stand-in; this crate is about *collecting* and *exporting*.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod alloc;
pub mod baseline;
mod batch;
mod flight;
pub mod json;
mod metrics;
mod profile;
mod report;
mod serve;
mod subscribe;
mod telemetry;
mod trace;

pub use alloc::{attach_alloc_profile, enter_phase, profiling_enabled, AllocSnapshot, PhaseAlloc};
#[cfg(feature = "alloc-profile")]
pub use alloc::PhaseTagSubscriber;
pub use baseline::{DiffConfig, DiffEntry, DiffSeverity, ReportDiff};
pub use batch::{
    BatchManifest, BatchSummary, JobRecord, JobStatus, QuarantineReport, BATCH_SCHEMA_VERSION,
};
pub use flight::{
    BlackboxDump, FlightHandle, FlightRecord, FlightRecorder, BLACKBOX_SCHEMA_VERSION,
};
pub use json::{expect_schema_version, Json, JsonParseError};
pub use metrics::{Histogram, HistogramSummary, Metrics, MetricsSnapshot};
pub use profile::{
    ProfileCell, ProfileReport, ProfileTotals, PROFILE_KIND, PROFILE_SCHEMA_VERSION,
};
pub use report::{
    DegradationReport, NetReport, NetworkReport, PhaseReport, QualityReport, RunReport,
    SCHEMA_VERSION,
};
pub use serve::{CacheOutcome, ServeReport, ServeStats, ServeStatus, SERVE_SCHEMA_VERSION};
pub use subscribe::{FanoutSubscriber, JsonLinesSubscriber, TextSubscriber};
pub use telemetry::{RollingHistogram, Telemetry, WindowSummary};
pub use trace::{TraceBuffer, TraceEvent, TraceEventSubscriber};

/// Renders a caught panic payload as text: the `&str` or `String` it
/// carries, or a fixed placeholder for any other payload type.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}
