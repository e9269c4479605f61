//! Experiment drivers reproducing every complexity claim of the paper, and
//! the recorders and CI gates behind the committed `BENCH_*.json` files.
//!
//! The paper is a theory paper: its "evaluation" is a set of proven bounds
//! rather than measured tables, so the experiments here measure the
//! quantities those bounds are about and compare them with the theoretical
//! reference curves (see `EXPERIMENTS.md` at the repository root for the
//! recorded outputs and the paper-vs-measured discussion).
//!
//! Each experiment is available as
//!
//! * a library function in [`experiments`] returning an
//!   [`fle_analysis::Table`], used by the integration tests and by
//!   EXPERIMENTS.md regeneration, and
//! * a binary (`cargo run --release -p fle-bench --bin exp_e1_poisonpill_survivors`,
//!   etc.) that prints the table and writes it as `BENCH_E<k>.json`.
//!
//! [`baseline`], [`parallel`] and [`service_load`] record the simulator
//! and service throughput trajectories (`BENCH_baseline.json`,
//! `BENCH_service.json`) and run the CI gates that compare against them.
//! Every `BENCH_*.json` file has the one layout of [`json`], written and
//! read by that module alone. End-to-end performance claims are judged by
//! the repository benchmark (`BENCHMARK.json`, `benchmark/`), not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod batch;
pub mod experiments;
pub mod json;
pub mod parallel;
pub mod service_load;

/// The log-scaled histogram now lives in `fle-obs` (the service's
/// observability layer shares it); re-exported here for the bench API's
/// long-standing `fle_bench::hist` path.
pub use fle_obs::hist;

pub use batch::BatchRunner;
pub use experiments::{
    e1_poisonpill_survivors, e2_het_survivors, e3_election_time, e4_message_complexity,
    e5_fault_tolerance, e6_renaming, e7_lower_bound_check, e8_bias_ablation, AdversaryKind,
};
pub use fle_obs::LogHistogram;
pub use parallel::{
    measure_parallel_default, measure_parallel_point, parallel_smoke_check, ParallelPoint,
    PartitionSample,
};
pub use service_load::{
    closed_loop, metrics_smoke_check, open_loop, open_loop_overload, overload_smoke_check,
    overload_sweep, submit_with_retry, LoadResult, LoadSpec, OverloadResult, OverloadSpec,
};
