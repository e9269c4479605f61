//! Always-on observability for the leader-election service.
//!
//! `fle-obs` is the shared metrics home the service and bench layers both
//! lean on, split into three pieces:
//!
//! * [`hist`] — the fixed-footprint, mergeable [`LogHistogram`] (promoted
//!   here from `fle-bench` so the service's recorders and the bench's load
//!   generators share one percentile engine);
//! * [`recorder`] — the hot-path side: [`ShardRecorder`], lock-cheap
//!   counters/gauges/histograms one service shard writes into while it
//!   runs;
//! * [`snapshot`] — the cold-path side: [`ShardSnapshot`] and
//!   [`MetricsSnapshot`], frozen mergeable views with the attribution
//!   report.
//!
//! The crate has no dependencies (not even the workspace shims) and no
//! notion of elections: it counts what it is told and buckets what it is
//! handed, so any layer can use it without dragging in the runtime. The
//! overhead budget is a few relaxed atomic RMWs plus one uncontended mutex
//! acquisition per instance — the CI `metrics-smoke` job gates that the
//! instrumented service smoke stays within noise of the uninstrumented
//! one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod recorder;
pub mod snapshot;

pub use hist::LogHistogram;
pub use recorder::{Counter, RunKind, ShardRecorder, Watermark};
pub use snapshot::{FaultCounters, HistogramSummary, MetricsSnapshot, ShardSnapshot};
