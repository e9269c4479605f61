//! Load generation against the sharded [`fle_service::ElectionService`].
//!
//! Three generator shapes:
//!
//! * **closed loop** ([`closed_loop`]) — `clients` threads, each submitting
//!   its next instance only after the previous one completed; measures the
//!   *sustained* instances/second the service can serve at that concurrency,
//!   with per-instance latencies for tail percentiles.
//! * **open loop** ([`open_loop`]) — a single submitter paces submissions at
//!   a target rate regardless of completions, so queueing shows up as
//!   latency rather than as throttled throughput. Transient `Overloaded`
//!   refusals are retried with jittered exponential backoff
//!   ([`submit_with_retry`]).
//! * **overload** ([`open_loop_overload`]) — open loop *past* the service's
//!   capacity with **no** retry: refusals are counted instead, measuring
//!   goodput, admitted-work tail latency, and shed rate under the service's
//!   admission control. [`overload_sweep`] runs it at multiples of the
//!   [`sustainable_rate`] for the `overload` section of
//!   `BENCH_service.json`.
//!
//! Latencies are aggregated in a fixed-footprint log-scaled histogram
//! ([`crate::hist::LogHistogram`]) — O(1) recording, ≤ 1.6 % quantile error —
//! instead of a sorted sample vector. Every run verifies correctness while
//! it measures: exactly one result per admitted key (nothing lost, nothing
//! duplicated), exactly one winner per election instance, and the service's
//! accounting invariant `submitted = completed + failed + shed + drained`.
//! The standard recording ([`record_default`]) sweeps the async backend at
//! shard counts {1, 4, `num_cpus`}, the density sweep at n ∈ {4, 16, 64}
//! ([`density_sweep`]), and the executor-direct density storm
//! ([`executor_density_storm`] — every instance in flight at once,
//! `peak_in_flight` measured), and writes them as the sections of
//! `BENCH_service.json` in the one layout of [`crate::json`];
//! [`smoke_check`], [`overload_smoke_check`], [`metrics_smoke_check`] and
//! [`async_smoke_check`] are the CI gates.

use crate::hist::LogHistogram;
use crate::json::{self, Document, Section};
use fle_analysis::Table;
use fle_obs::{HistogramSummary, MetricsSnapshot};
use fle_runtime::{ExecResult, Executor, ExecutorConfig};
use fle_service::{
    BackendKind, ElectionService, InstanceSpec, OverloadPolicy, ServiceConfig, SubmitError, Ticket,
};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One load-generation configuration.
#[derive(Debug, Clone, Copy)]
pub struct LoadSpec {
    /// The backend instances execute on.
    pub backend: BackendKind,
    /// Service shards (worker threads).
    pub shards: usize,
    /// Total instances to run.
    pub instances: usize,
    /// System size of each instance.
    pub n: usize,
    /// Closed-loop client threads (ignored by [`open_loop`]).
    pub clients: usize,
    /// Base for the per-instance keys/seeds.
    pub base_key: u64,
}

impl LoadSpec {
    /// A closed-loop spec on the async backend: `instances` elections of
    /// size `n` over `shards` shards, with twice as many clients as shards
    /// (enough to keep every shard busy).
    pub fn concurrent(shards: usize, instances: usize, n: usize) -> Self {
        LoadSpec {
            backend: BackendKind::Async,
            shards,
            instances,
            n,
            clients: (shards * 2).max(2),
            base_key: 0,
        }
    }

    /// Use a different backend.
    #[must_use]
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }
}

/// The measurement of one load run.
#[derive(Debug, Clone)]
pub struct LoadResult {
    /// The configuration measured.
    pub spec: LoadSpec,
    /// Wall-clock seconds for the whole run.
    pub wall_secs: f64,
    /// Completed instances per second, sustained over the run.
    pub instances_per_sec: f64,
    /// Median submit-to-completion latency, microseconds.
    pub p50_micros: u64,
    /// 95th-percentile latency, microseconds.
    pub p95_micros: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_micros: u64,
    /// Worst observed latency, microseconds (exact).
    pub max_micros: u64,
    /// The service's per-shard metrics at shutdown (cross-checked against
    /// the aggregate stats); `None` when the run disabled metrics.
    pub metrics: Option<MetricsSnapshot>,
}

fn summarize(
    spec: LoadSpec,
    wall: Duration,
    latencies: &LogHistogram,
    metrics: Option<MetricsSnapshot>,
) -> LoadResult {
    let wall_secs = wall.as_secs_f64();
    LoadResult {
        spec,
        wall_secs,
        instances_per_sec: spec.instances as f64 / wall_secs.max(f64::MIN_POSITIVE),
        p50_micros: latencies.value_at_quantile(0.50),
        p95_micros: latencies.value_at_quantile(0.95),
        p99_micros: latencies.value_at_quantile(0.99),
        max_micros: latencies.max(),
        metrics,
    }
}

/// Verify one completed instance and return its latency in microseconds.
///
/// # Panics
/// Panics when an instance loses its result, completes under the wrong key,
/// returns the wrong number of outcomes, or fails to elect a unique winner —
/// the load generator doubles as a correctness harness.
fn verify(expected_key: u64, n: usize, ticket: Ticket) -> u64 {
    let result = ticket.wait().expect("no instance result may be lost");
    assert_eq!(result.key, expected_key, "results must not cross instances");
    assert_eq!(
        result.outcomes.len(),
        n,
        "every participant of instance {expected_key} must return"
    );
    assert!(
        result.winner().is_some(),
        "instance {expected_key} must elect exactly one winner"
    );
    u64::try_from(result.latency.as_micros()).unwrap_or(u64::MAX)
}

/// Submit, retrying transient [`SubmitError::Overloaded`] refusals with
/// jittered exponential backoff (50 µs doubling to a 5 ms cap, plus a
/// deterministic key-seeded jitter to decorrelate competing submitters).
/// Gives up after `max_attempts`, returning the last refusal.
///
/// # Errors
/// Whatever the final `submit` attempt returned.
pub fn submit_with_retry(
    service: &ElectionService,
    spec: InstanceSpec,
    max_attempts: u32,
) -> Result<Ticket, SubmitError> {
    let mut backoff_micros = 50u64;
    let mut attempt = 0u32;
    loop {
        match service.submit(spec) {
            Err(SubmitError::Overloaded) if attempt + 1 < max_attempts => {
                let jitter =
                    fle_model::splitmix64(spec.key ^ u64::from(attempt)) % backoff_micros.max(1);
                std::thread::sleep(Duration::from_micros(backoff_micros + jitter));
                backoff_micros = (backoff_micros * 2).min(5_000);
                attempt += 1;
            }
            other => return other,
        }
    }
}

/// Closed-loop load: `spec.clients` threads, each keeping one instance in
/// flight, until `spec.instances` have completed.
///
/// # Panics
/// Panics on any correctness violation (lost/duplicate/cross-keyed result,
/// no unique winner, accounting imbalance) — see the internal `verify` pass.
pub fn closed_loop(spec: LoadSpec) -> LoadResult {
    run_closed_loop(spec, true)
}

/// [`closed_loop`] with the per-shard metrics recorders on or off — the
/// off variant exists for the metrics-overhead gate
/// ([`metrics_smoke_check`]).
fn run_closed_loop(spec: LoadSpec, metrics: bool) -> LoadResult {
    let service =
        ElectionService::new(ServiceConfig::new(spec.shards, spec.backend).with_metrics(metrics));
    let start = Instant::now();
    let latencies: LogHistogram = std::thread::scope(|scope| {
        let service = &service;
        let handles: Vec<_> = (0..spec.clients)
            .map(|client| {
                scope.spawn(move || {
                    // Client `c` owns keys c, c+clients, c+2·clients, …:
                    // disjoint by construction, so nothing is ever duplicated.
                    let mut latencies = LogHistogram::new();
                    let mut index = client;
                    while index < spec.instances {
                        let key = spec.base_key + index as u64;
                        let ticket = service
                            .submit(InstanceSpec::election(key, spec.n))
                            .expect("disjoint fresh keys are always accepted");
                        latencies.record(verify(key, spec.n, ticket));
                        index += spec.clients;
                    }
                    latencies
                })
            })
            .collect();
        let mut merged = LogHistogram::new();
        for handle in handles {
            merged.merge(&handle.join().expect("client threads do not panic"));
        }
        merged
    });
    let wall = start.elapsed();
    let (stats, snapshot) = service.shutdown_with_metrics();
    assert_eq!(
        stats.completed, spec.instances as u64,
        "the service must complete exactly the submitted instances"
    );
    assert_eq!(
        latencies.count(),
        spec.instances as u64,
        "one result per instance"
    );
    stats
        .check_invariant()
        .expect("the service accounting must balance");
    if let Some(snapshot) = &snapshot {
        stats
            .check_metrics(snapshot)
            .expect("the per-shard metrics must agree with the aggregate stats");
    }
    summarize(spec, wall, &latencies, snapshot)
}

/// Open-loop load: submit every instance at a fixed target rate (per
/// second), then drain all tickets. Queueing delay shows up in the latency
/// percentiles instead of throttling the submission rate; transient
/// `Overloaded` refusals are retried with backoff ([`submit_with_retry`]).
///
/// # Panics
/// Panics on the same correctness violations as [`closed_loop`], and when a
/// submission is still refused after exhausting its retries.
pub fn open_loop(spec: LoadSpec, rate_per_sec: f64) -> LoadResult {
    assert!(rate_per_sec > 0.0, "the target rate must be positive");
    let service = ElectionService::new(ServiceConfig::new(spec.shards, spec.backend));
    let gap = Duration::from_secs_f64(1.0 / rate_per_sec);
    let start = Instant::now();
    let mut tickets = Vec::with_capacity(spec.instances);
    for index in 0..spec.instances {
        // Pace against the ideal schedule, not the previous send, so a slow
        // submit does not permanently lower the offered rate.
        let due = start + gap * index as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let key = spec.base_key + index as u64;
        tickets.push(
            submit_with_retry(&service, InstanceSpec::election(key, spec.n), 16)
                .expect("fresh keys are admitted within the retry budget"),
        );
    }
    let mut latencies = LogHistogram::new();
    for (index, ticket) in tickets.into_iter().enumerate() {
        latencies.record(verify(spec.base_key + index as u64, spec.n, ticket));
    }
    let wall = start.elapsed();
    let (stats, snapshot) = service.shutdown_with_metrics();
    assert_eq!(stats.completed, spec.instances as u64);
    stats
        .check_invariant()
        .expect("the service accounting must balance");
    if let Some(snapshot) = &snapshot {
        stats
            .check_metrics(snapshot)
            .expect("the per-shard metrics must agree with the aggregate stats");
    }
    summarize(spec, wall, &latencies, snapshot)
}

/// One overload configuration: open-loop past capacity, no retries.
#[derive(Debug, Clone, Copy)]
pub struct OverloadSpec {
    /// Service shards (worker threads).
    pub shards: usize,
    /// Bound of each shard's admission queue.
    pub queue_capacity: usize,
    /// System size of each instance.
    pub n: usize,
    /// Submission attempts to offer.
    pub instances: usize,
    /// The overload policy under test.
    pub policy: OverloadPolicy,
    /// Base for the per-instance keys/seeds.
    pub base_key: u64,
}

impl OverloadSpec {
    /// The standard overload shape: `shards` workers with short queues of
    /// 32, four-processor elections, [`OverloadPolicy::Shed`].
    pub fn shed(shards: usize, instances: usize, n: usize) -> Self {
        OverloadSpec {
            shards,
            queue_capacity: 32,
            n,
            instances,
            policy: OverloadPolicy::Shed,
            base_key: 0,
        }
    }
}

/// The measurement of one overload run.
#[derive(Debug, Clone, Copy)]
pub struct OverloadResult {
    /// The configuration measured.
    pub spec: OverloadSpec,
    /// The offered submission rate, per second.
    pub offered_per_sec: f64,
    /// Offered rate as a multiple of the measured sustainable rate.
    pub multiplier: f64,
    /// Submission attempts made.
    pub offered: u64,
    /// Submissions admitted to a queue.
    pub admitted: u64,
    /// Admitted instances that completed correctly.
    pub completed: u64,
    /// Submissions refused at the door (`Overloaded`).
    pub refused: u64,
    /// Admitted jobs later dropped (displaced by `DropOldest`, expired, or
    /// drained at shutdown).
    pub dropped: u64,
    /// Completed instances per second of wall clock — the *goodput*.
    pub goodput_per_sec: f64,
    /// Fraction of offered work not completed (refused + dropped).
    pub shed_fraction: f64,
    /// Median admitted-work latency, microseconds.
    pub p50_micros: u64,
    /// 99th-percentile admitted-work latency, microseconds.
    pub p99_micros: u64,
    /// Highest queue depth any shard reached (must stay ≤ capacity).
    pub max_queue_depth: usize,
}

/// Open-loop load *past* capacity with **no** retry: a refusal is a counted
/// shed, not an error. Measures what admission control is for — bounded
/// queues, bounded admitted-work latency, and goodput that holds up while
/// excess load is turned away.
///
/// # Panics
/// Panics when an *admitted* instance is lost, duplicated, or mis-elected,
/// or when the service accounting imbalances — shedding must never corrupt
/// admitted work.
pub fn open_loop_overload(spec: OverloadSpec, rate_per_sec: f64) -> OverloadResult {
    open_loop_overload_observed(spec, rate_per_sec).0
}

/// [`open_loop_overload`], also returning the per-shard metrics snapshot so
/// the sweep can attribute where the overload landed.
pub fn open_loop_overload_observed(
    spec: OverloadSpec,
    rate_per_sec: f64,
) -> (OverloadResult, Option<MetricsSnapshot>) {
    assert!(rate_per_sec > 0.0, "the offered rate must be positive");
    let config = ServiceConfig::new(spec.shards, BackendKind::Async)
        .with_queue_capacity(spec.queue_capacity)
        .with_overload_policy(spec.policy);
    let service = ElectionService::new(config);
    let gap = Duration::from_secs_f64(1.0 / rate_per_sec);
    let start = Instant::now();
    let mut tickets: Vec<(u64, Ticket)> = Vec::new();
    let mut refused = 0u64;
    for index in 0..spec.instances {
        let due = start + gap * index as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let key = spec.base_key + index as u64;
        match service.submit(InstanceSpec::election(key, spec.n)) {
            Ok(ticket) => tickets.push((key, ticket)),
            Err(SubmitError::Overloaded) => refused += 1,
            Err(error) => panic!("unexpected refusal for fresh key {key}: {error}"),
        }
    }
    let admitted = tickets.len() as u64;
    let mut latencies = LogHistogram::new();
    let mut dropped = 0u64;
    for (key, ticket) in tickets {
        match ticket.wait() {
            Ok(result) => {
                assert_eq!(result.key, key, "results must not cross instances");
                assert_eq!(result.outcomes.len(), spec.n);
                assert!(result.winner().is_some(), "instance {key}");
                latencies.record(u64::try_from(result.latency.as_micros()).unwrap_or(u64::MAX));
            }
            // An admitted-then-dropped job (displaced, expired, or drained)
            // is a counted shed; losing the *channel* would be a bug caught
            // by `wait` returning ServiceShutdown only after real shutdown.
            Err(SubmitError::Overloaded | SubmitError::DeadlineExceeded(_)) => dropped += 1,
            Err(error) => panic!("admitted instance {key} failed: {error}"),
        }
    }
    let wall = start.elapsed();
    let (stats, snapshot) = service.shutdown_with_metrics();
    stats
        .check_invariant()
        .expect("shedding must not unbalance the accounting");
    assert_eq!(stats.submitted, admitted, "admission accounting");
    assert_eq!(stats.completed, latencies.count(), "completion accounting");
    assert_eq!(stats.rejected, refused, "refusal accounting");
    if let Some(snapshot) = &snapshot {
        stats
            .check_metrics(snapshot)
            .expect("the per-shard metrics must agree even under overload");
    }
    let completed = latencies.count();
    let offered = spec.instances as u64;
    let result = OverloadResult {
        spec,
        offered_per_sec: rate_per_sec,
        multiplier: 0.0, // stamped by the caller when a sustainable rate is known
        offered,
        admitted,
        completed,
        refused,
        dropped,
        goodput_per_sec: completed as f64 / wall.as_secs_f64().max(f64::MIN_POSITIVE),
        shed_fraction: (offered - completed) as f64 / offered.max(1) as f64,
        p50_micros: latencies.value_at_quantile(0.50),
        p99_micros: latencies.value_at_quantile(0.99),
        max_queue_depth: stats.max_queue_depth,
    };
    (result, snapshot)
}

/// The rate `shards` shards sustain at size `n`: the goodput of an
/// open-loop pass of `instances` under [`OverloadPolicy::Shed`], offered at
/// 4× the rate of a [`closed_loop`] over the same shards.
///
/// The closed loop alone understates capacity: its `2 × shards` clients,
/// one instance each in flight, leave shard workers idle between
/// instances as short as inline ones, and more clients compete with the
/// workers for the CPUs. Offered well past that rate, the open-loop pass
/// keeps every queue non-empty, so its goodput is what the shards serve.
pub fn sustainable_rate(shards: usize, instances: usize, n: usize) -> f64 {
    let closed = closed_loop(LoadSpec::concurrent(shards, instances, n)).instances_per_sec;
    let mut spec = OverloadSpec::shed(shards, instances, n);
    spec.base_key = 20_000_000;
    open_loop_overload(spec, closed * 4.0).goodput_per_sec
}

/// Measure the [`sustainable_rate`], then offer multiples of it open-loop
/// under [`OverloadPolicy::Shed`]: the overload section of the standard
/// recording. Returns the sustainable rate and one result per multiplier.
/// Each sweep point prints its per-shard attribution report (slowest
/// shard, deepest queue, wait:run split) to stdout.
pub fn overload_sweep(
    shards: usize,
    instances: usize,
    n: usize,
    multipliers: &[f64],
) -> (f64, Vec<OverloadResult>) {
    let sustainable = sustainable_rate(shards, instances, n);
    let results = multipliers
        .iter()
        .enumerate()
        .map(|(index, &multiplier)| {
            let mut spec = OverloadSpec::shed(shards, instances, n);
            // Disjoint key ranges per sweep point (one service per point,
            // but disjointness keeps the latency seeds independent too).
            spec.base_key = 1_000_000 * (index as u64 + 1);
            let (mut result, snapshot) =
                open_loop_overload_observed(spec, sustainable * multiplier);
            result.multiplier = multiplier;
            if let Some(snapshot) = snapshot {
                println!(
                    "overload x{multiplier:.2} ({:.0}/s offered) — per-shard attribution:",
                    result.offered_per_sec
                );
                print!("{}", snapshot.attribution_report());
            }
            result
        })
        .collect();
    (sustainable, results)
}

/// Single-threaded reference: the same instances run back-to-back on the
/// bare backend with no service in front (no shards, no queues, no tickets);
/// on the async backend each runs inline on the calling thread, exactly as
/// on a shard worker. The machine-independent yardstick for
/// [`smoke_check`].
pub fn sequential_reference(spec: LoadSpec) -> f64 {
    let registers = std::sync::Arc::new(fle_runtime::SharedRegisters::new(16));
    let backend = spec.backend.build(&registers, None);
    let none = fle_model::CancelToken::none();
    let start = Instant::now();
    for index in 0..spec.instances {
        let key = spec.base_key + index as u64;
        let output = backend
            .run(&InstanceSpec::election(key, spec.n), &none)
            .expect("an uncancelled run completes");
        assert_eq!(output.outcomes.values().filter(|o| o.is_win()).count(), 1);
        registers.retire(key);
    }
    spec.instances as f64 / start.elapsed().as_secs_f64()
}

/// The density sweep: the same closed-loop storm on the async backend at
/// system sizes n ∈ {4, 16, 64}, whose n participants per instance are
/// stepped by the instance's shard worker, so the service runs on its shard
/// threads alone whatever n is. Instance counts shrink with n to keep total
/// work roughly level across the sweep.
pub fn density_sweep(shards: usize) -> Vec<LoadResult> {
    [(4usize, 800usize), (16, 400), (64, 120)]
        .into_iter()
        .map(|(n, instances)| closed_loop(LoadSpec::concurrent(shards, instances, n)))
        .collect()
}

/// The measurement of one executor-direct density storm
/// ([`executor_density_storm`]).
#[derive(Debug, Clone, Copy)]
pub struct DensityStorm {
    /// Instances staged (all submitted before any task ran).
    pub instances: usize,
    /// System size of each instance.
    pub n: usize,
    /// Worker threads in the executor pool.
    pub task_workers: usize,
    /// Highest number of simultaneously in-flight instances the executor
    /// observed — the density high-water mark.
    pub peak_in_flight: usize,
    /// Wall-clock seconds from worker release to last verified result.
    pub wall_secs: f64,
    /// Completed instances per second over the whole storm.
    pub instances_per_sec: f64,
}

/// Drive the task executor directly — no service, no queues — with
/// `instances` n-participant elections all staged *before any task runs*:
/// the pool starts paused, the whole batch is submitted (so `instances × n`
/// cooperative tasks are genuinely in flight at once — a load shape that
/// would need `instances × n` OS threads at one thread per participant), and
/// the workers are then released to drain it. Verifies while it measures:
/// every ticket resolves exactly once with n outcomes and one winner
/// (nothing lost, nothing duplicated, namespaces don't interfere), and the
/// executor's in-flight accounting returns to zero. `wall_secs` covers the
/// drain, release to last verified result.
///
/// # Panics
/// Panics on any correctness violation.
pub fn executor_density_storm(instances: usize, n: usize) -> DensityStorm {
    let executor = Executor::new(ExecutorConfig::default().with_start_paused());
    let registers = std::sync::Arc::new(fle_runtime::SharedRegisters::new(4));
    let plan = fle_runtime::FaultPlan::default();
    let tickets: Vec<_> = (0..instances)
        .map(|index| {
            executor.submit(
                &registers,
                index as u64,
                index as u64,
                fle_runtime::election_participants(n),
                &plan,
                fle_model::CancelToken::none(),
            )
        })
        .collect();
    assert_eq!(
        executor.stats().in_flight,
        instances,
        "the paused pool must hold the whole staged batch in flight"
    );
    let start = Instant::now();
    executor.release();
    for (index, ticket) in tickets.into_iter().enumerate() {
        match ticket.wait() {
            ExecResult::Completed(report) => {
                assert_eq!(
                    report.outcomes.len(),
                    n,
                    "instance {index}: every participant must return"
                );
                assert_eq!(
                    report.winners().len(),
                    1,
                    "instance {index}: exactly one winner"
                );
            }
            other => panic!("instance {index}: unexpected {other:?}"),
        }
        registers.retire(index as u64);
    }
    let wall = start.elapsed();
    let stats = executor.stats();
    assert_eq!(
        stats.in_flight, 0,
        "every submitted instance must be accounted for"
    );
    executor.shutdown();
    DensityStorm {
        instances,
        n,
        task_workers: stats.workers,
        peak_in_flight: stats.peak_in_flight,
        wall_secs: wall.as_secs_f64(),
        instances_per_sec: instances as f64 / wall.as_secs_f64().max(f64::MIN_POSITIVE),
    }
}

/// Instances of the CI density storm — comfortably above the gate's floor
/// so a few early completions during the submit loop cannot flake it.
pub const DENSITY_STORM_INSTANCES: usize = 6000;

/// System size of each density-storm instance.
pub const DENSITY_STORM_N: usize = 16;

/// The concurrency high-water mark the storm must reach: at least this many
/// instances simultaneously in flight (the "thousands of participants per
/// OS thread" claim, asserted rather than assumed).
pub const DENSITY_MIN_PEAK: usize = 5000;

/// The CI async-smoke gate: [`executor_density_storm`] with
/// [`DENSITY_STORM_INSTANCES`] instances of size [`DENSITY_STORM_N`] —
/// every outcome verified (zero lost or duplicate, one winner each,
/// in-flight accounting returns to zero) and the peak concurrency must
/// reach [`DENSITY_MIN_PEAK`], proving the executor really multiplexes
/// thousands of instances over its fixed pool. (The service storm on the
/// async backend is [`smoke_check`]'s.)
///
/// # Errors
/// Returns a description of the failure (the correctness assertions inside
/// the storm panic instead — a lost outcome is a bug, not a gate trip).
pub fn async_smoke_check() -> Result<DensityStorm, String> {
    let storm = executor_density_storm(DENSITY_STORM_INSTANCES, DENSITY_STORM_N);
    if storm.peak_in_flight < DENSITY_MIN_PEAK {
        return Err(format!(
            "the executor never got dense: peak {} concurrent instances across {} staged \
             (floor {DENSITY_MIN_PEAK}) — the in-flight accounting is broken",
            storm.peak_in_flight, storm.instances
        ));
    }
    Ok(storm)
}

/// Closed-loop results (the `points` and `density` sections) as a section.
fn load_section(about: &str, results: &[LoadResult]) -> Section {
    let mut table = Table::new([
        "backend",
        "shards",
        "n",
        "instances",
        "clients",
        "instances_per_sec",
        "p50_micros",
        "p95_micros",
        "p99_micros",
        "max_micros",
    ]);
    for p in results {
        table.add_row([
            p.spec.backend.label().to_string(),
            p.spec.shards.to_string(),
            p.spec.n.to_string(),
            p.spec.instances.to_string(),
            p.spec.clients.to_string(),
            format!("{:.1}", p.instances_per_sec),
            p.p50_micros.to_string(),
            p.p95_micros.to_string(),
            p.p99_micros.to_string(),
            p.max_micros.to_string(),
        ]);
    }
    Section::new(about, table)
}

/// The `overload` section: one row per offered multiple.
fn overload_section(results: &[OverloadResult]) -> Section {
    let mut table = Table::new([
        "policy",
        "shards",
        "queue_capacity",
        "multiplier",
        "offered_per_sec",
        "goodput_per_sec",
        "offered",
        "admitted",
        "completed",
        "refused",
        "dropped",
        "shed_fraction",
        "p50_micros",
        "p99_micros",
        "max_queue_depth",
    ]);
    for o in results {
        table.add_row([
            o.spec.policy.label().to_string(),
            o.spec.shards.to_string(),
            o.spec.queue_capacity.to_string(),
            format!("{:.2}", o.multiplier),
            format!("{:.1}", o.offered_per_sec),
            format!("{:.1}", o.goodput_per_sec),
            o.offered.to_string(),
            o.admitted.to_string(),
            o.completed.to_string(),
            o.refused.to_string(),
            o.dropped.to_string(),
            format!("{:.3}", o.shed_fraction),
            o.p50_micros.to_string(),
            o.p99_micros.to_string(),
            o.max_queue_depth.to_string(),
        ]);
    }
    Section::new(
        "open-loop at multiples of the sustainable rate (the goodput of an open-loop shed \
         pass offered at 4x the closed-loop rate), shed policy, queue capacity 32 per shard, \
         no retry: refusals count as shed; goodput = completed/s; latency percentiles cover \
         admitted work only; accounting invariant submitted = completed + failed + shed + \
         drained asserted every run",
        table,
    )
}

/// The `executor_storm` section: one row.
fn storm_section(storm: &DensityStorm) -> Section {
    let mut table = Table::new([
        "instances",
        "n",
        "task_workers",
        "peak_in_flight",
        "wall_secs",
        "instances_per_sec",
    ]);
    table.add_row([
        storm.instances.to_string(),
        storm.n.to_string(),
        storm.task_workers.to_string(),
        storm.peak_in_flight.to_string(),
        format!("{:.3}", storm.wall_secs),
        format!("{:.1}", storm.instances_per_sec),
    ]);
    Section::new(
        "drives the executor pool directly, which the service storms no longer use: the \
         whole batch is staged on a paused pool, then the workers are released to drain it; \
         peak_in_flight is the measured concurrency high-water mark, instances_per_sec the \
         drain rate, with every outcome verified (none lost, none duplicated, one winner each)",
        table,
    )
}

/// The `metrics` section: one row per shard plus an `all` row for the
/// aggregate, with each histogram summary and fault counter as columns.
fn metrics_section(snapshot: &MetricsSnapshot) -> Section {
    let mut header: Vec<String> = [
        "shard",
        "admitted",
        "completed",
        "cancelled_in_flight",
        "panics",
        "displaced",
        "expired_in_queue",
        "rejected_shed",
        "rejected_block_timeout",
        "blocked_submitters",
        "drained",
        "retired",
        "epochs_closed",
        "queue_depth",
        "queue_high_water",
    ]
    .map(String::from)
    .to_vec();
    for histogram in ["wait_micros", "run_micros", "retirement_lag"] {
        for stat in ["count", "mean", "p50", "p95", "p99", "max"] {
            header.push(format!("{histogram}_{stat}"));
        }
    }
    header.extend(
        [
            "wait_run_ratio",
            "fault_ops",
            "fault_delays",
            "fault_delay_micros",
            "fault_collect_failures",
            "fault_crashes",
        ]
        .map(String::from),
    );
    let mut table = Table::new(header);
    let aggregate = snapshot.aggregate();
    let labelled = snapshot.per_shard.iter().map(|s| (s.shard.to_string(), s));
    for (label, s) in labelled.chain([("all".to_string(), &aggregate)]) {
        let mut row = vec![label];
        let counters = [
            s.admitted,
            s.completed,
            s.cancelled_in_flight,
            s.panics,
            s.displaced,
            s.expired_in_queue,
            s.rejected_shed,
            s.rejected_block_timeout,
            s.blocked_submitters,
            s.drained,
            s.retired,
            s.epochs_closed,
            s.queue_depth as u64,
            s.queue_high_water as u64,
        ];
        row.extend(counters.map(|count| count.to_string()));
        for histogram in [&s.queue_wait_micros, &s.run_micros, &s.retirement_lag] {
            let h = HistogramSummary::of(histogram);
            row.extend([
                h.count.to_string(),
                format!("{:.2}", h.mean),
                h.p50.to_string(),
                h.p95.to_string(),
                h.p99.to_string(),
                h.max.to_string(),
            ]);
        }
        row.push(format!("{:.4}", s.wait_run_ratio()));
        let f = &s.faults;
        let faults = [
            f.ops,
            f.delays,
            f.delay_micros,
            f.collect_failures,
            f.crashes,
        ];
        row.extend(faults.map(|count| count.to_string()));
        table.add_row(row);
    }
    Section::new(
        "per-shard recorders sampled at shutdown of one representative closed-loop point, one \
         row per shard and an `all` row aggregating them; wait = submit-to-dequeue, run = \
         dequeue-to-terminal, retirement_lag in terminal events; histogram quantiles <= 1.6% \
         bucket error; fault_* count injected faults; per-shard sums cross-checked against \
         the aggregate ServiceStats every run",
        table,
    )
}

/// The tracked `BENCH_service.json` at the workspace root.
pub fn service_bench_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_service.json")
}

/// Measure the given specs plus the overload sweep, the backend-density
/// n-sweep, and the executor density storm, and write them as the
/// `BENCH_service.json` document at `path`; returns the document.
pub fn record(path: &Path, specs: &[LoadSpec], overload_shards: usize) -> Document {
    let points: Vec<LoadResult> = specs.iter().map(|&spec| closed_loop(spec)).collect();
    let (_, overload) = overload_sweep(overload_shards, 800, 4, &[0.5, 1.0, 2.0, 4.0]);
    let density = density_sweep(overload_shards);
    let storm = executor_density_storm(DENSITY_STORM_INSTANCES, DENSITY_STORM_N);
    let mut document = Document::new("service")
        .with_section(
            "points",
            load_section(
                "closed-loop election storm: `instances` independent n-processor elections \
                 over a sharded ElectionService; clients = 2 x shards closed-loop threads, each \
                 keeping one instance in flight; every run asserts exactly one result per key \
                 and one winner per instance; latency is submit-to-completion including \
                 queueing; async backend = each shard worker steps its instance's participants \
                 itself, round-robin in bursts of 8 operations, over namespaced shared \
                 registers, with no executor pool; percentiles from a log-scaled histogram \
                 (<= 1.6% bucket error)",
                &points,
            ),
        )
        .with_section("overload", overload_section(&overload))
        .with_section(
            "density",
            load_section(
                "the same closed-loop storm at n in {4, 16, 64} on the async backend (instance \
                 counts shrink with n to keep total work level), the n participants of every \
                 instance stepped by its shard worker, so the service runs on its shard \
                 threads alone",
                &density,
            ),
        )
        .with_section("executor_storm", storm_section(&storm));
    // The `metrics` section: the closed-loop point whose shard count the
    // overload sweep reuses (falling back to the last point).
    let metrics = points
        .iter()
        .find(|p| p.spec.shards == overload_shards)
        .or_else(|| points.last())
        .and_then(|p| p.metrics.as_ref());
    if let Some(snapshot) = metrics {
        document = document.with_section("metrics", metrics_section(snapshot));
    }
    document.write(path);
    document
}

/// The standard recording: the async backend at shard counts
/// {1, 4, `num_cpus`} (deduplicated), 2000 four-processor elections each,
/// plus the overload sweep, density n-sweep, and executor storm at 4 shards.
pub fn record_default() -> Document {
    let cpus = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
    let mut shard_counts = vec![1usize, 4, cpus];
    shard_counts.sort_unstable();
    shard_counts.dedup();
    let specs: Vec<LoadSpec> = shard_counts
        .into_iter()
        .map(|shards| LoadSpec::concurrent(shards, 2000, 4))
        .collect();
    record(&service_bench_path(), &specs, 4)
}

/// Instances of the CI smoke run (the "≥ 1000 concurrent instances" gate).
pub const SMOKE_INSTANCES: usize = 1000;

/// Shard count of the CI smoke run (matches a recorded point).
pub const SMOKE_SHARDS: usize = 4;

/// Absolute regression factor against the recording before the gate even
/// considers failing.
pub const SMOKE_REGRESSION_FACTOR: f64 = 3.0;

/// Machine-independent backstop: the sharded service must retain at least
/// this fraction of the single-threaded sequential throughput *measured in
/// the same run*. Anything lower means the service layer itself (queueing,
/// sharding, retirement) is devouring the backend's throughput — a real
/// regression even on a slow runner.
///
/// A service-layer slowdown `s` moves the fraction `f` to `f / s`, so the
/// floor trips at `s = f / floor`. With instances running inline on the
/// shard workers the median fraction is about 0.31, and 1/12 trips at
/// about 3.7×, no later than the previous floor of 1/3 did when the median
/// was about 1.29 (arithmetic in EXPERIMENTS.md).
pub const SMOKE_MIN_SEQUENTIAL_FRACTION: f64 = 1.0 / 12.0;

/// The CI service-smoke gate: run [`SMOKE_INSTANCES`] async-backend
/// instances (correctness asserted throughout — zero lost or duplicate
/// outcomes, one winner each, balanced accounting), then compare throughput
/// with the recorded `BENCH_service.json`.
///
/// Mirrors the baseline smoke gate's two-signal design: fail only when the
/// absolute throughput fell more than [`SMOKE_REGRESSION_FACTOR`]× below the
/// recording **and** the same-run service-vs-sequential ratio dropped below
/// [`SMOKE_MIN_SEQUENTIAL_FRACTION`] — a slow runner passes the second
/// check, a genuine service regression fails both.
///
/// # Errors
/// Returns a description of the failure: unreadable recording or a
/// regression confirmed by both signals.
pub fn smoke_check() -> Result<(f64, f64), String> {
    let recorded = json::read(&service_bench_path())?
        .section("points")?
        .number("shards", &SMOKE_SHARDS.to_string(), "instances_per_sec")?;
    let result = closed_loop(LoadSpec::concurrent(SMOKE_SHARDS, SMOKE_INSTANCES, 4));
    let measured = result.instances_per_sec;
    if measured * SMOKE_REGRESSION_FACTOR < recorded {
        let sequential = sequential_reference(LoadSpec::concurrent(1, 200, 4));
        let fraction = measured / sequential;
        if fraction < SMOKE_MIN_SEQUENTIAL_FRACTION {
            return Err(format!(
                "service throughput regressed: measured {measured:.0} instances/s is more \
                 than {SMOKE_REGRESSION_FACTOR}x below the recorded {recorded:.0}, and the \
                 same-run service/sequential ratio {fraction:.3} fell below \
                 {SMOKE_MIN_SEQUENTIAL_FRACTION:.3}"
            ));
        }
        eprintln!(
            "service-smoke note: absolute throughput below the recording \
             (measured {measured:.0} vs recorded {recorded:.0}) but the same-run \
             service/sequential ratio {fraction:.3} is healthy — assuming a slower machine"
        );
    }
    Ok((measured, recorded))
}

/// Maximum slowdown the per-shard metrics layer may cost: metrics-on
/// throughput must stay at least this fraction of metrics-off throughput
/// (the ISSUE budget is 5 %; the gate allows 20 % to absorb CI noise, with
/// one re-measure before failing).
pub const METRICS_MIN_THROUGHPUT_FRACTION: f64 = 0.80;

/// The CI metrics-smoke gate: run the same closed-loop storm with the
/// per-shard recorders on and off, and verify that
///
/// * the instrumented run produces a snapshot whose per-shard sums equal
///   the aggregate `ServiceStats` (asserted inside [`closed_loop`] via
///   `check_metrics`, alongside `check_invariant`),
/// * the snapshot attributes the work — every shard admitted something and
///   wait/run histograms carry one sample per completed instance, and
/// * metrics-on throughput stays within [`METRICS_MIN_THROUGHPUT_FRACTION`]
///   of metrics-off (re-measured once before failing, to damp scheduler
///   noise on shared runners).
///
/// Prints the instrumented run's attribution report. Returns
/// `(metrics_on_per_sec, metrics_off_per_sec)`.
///
/// # Errors
/// Returns a description of the first violated property.
pub fn metrics_smoke_check() -> Result<(f64, f64), String> {
    let spec = LoadSpec::concurrent(SMOKE_SHARDS, SMOKE_INSTANCES, 4);
    let mut on = run_closed_loop(spec, true);
    let snapshot = on
        .metrics
        .take()
        .ok_or_else(|| "the instrumented run produced no metrics snapshot".to_string())?;
    let total = snapshot.aggregate();
    if total.admitted != spec.instances as u64 {
        return Err(format!(
            "per-shard admitted sums to {} but {} instances were submitted",
            total.admitted, spec.instances
        ));
    }
    if total.started() != total.queue_wait_micros.count()
        || total.started() != total.run_micros.count()
    {
        return Err(format!(
            "started {} runs but recorded {} waits and {} run times",
            total.started(),
            total.queue_wait_micros.count(),
            total.run_micros.count()
        ));
    }
    if let Some(idle) = snapshot.per_shard.iter().find(|s| s.admitted == 0) {
        return Err(format!(
            "shard {} admitted nothing across {} instances — routing is not spreading keys",
            idle.shard, spec.instances
        ));
    }
    println!("metrics-smoke attribution ({} instances):", spec.instances);
    print!("{}", snapshot.attribution_report());
    let mut off = run_closed_loop(spec, false);
    if off.metrics.is_some() {
        return Err("the metrics-off run still produced a snapshot".to_string());
    }
    if on.instances_per_sec < off.instances_per_sec * METRICS_MIN_THROUGHPUT_FRACTION {
        // One re-measure: a single descheduled worker can cost more than
        // the whole metrics layer does.
        eprintln!(
            "metrics-smoke note: first pass measured {:.0}/s on vs {:.0}/s off — re-measuring",
            on.instances_per_sec, off.instances_per_sec
        );
        on = run_closed_loop(spec, true);
        off = run_closed_loop(spec, false);
        if on.instances_per_sec < off.instances_per_sec * METRICS_MIN_THROUGHPUT_FRACTION {
            return Err(format!(
                "metrics overhead too high: {:.0} instances/s with recorders vs {:.0} \
                 without (floor {:.0}%)",
                on.instances_per_sec,
                off.instances_per_sec,
                METRICS_MIN_THROUGHPUT_FRACTION * 100.0
            ));
        }
    }
    Ok((on.instances_per_sec, off.instances_per_sec))
}

/// The CI overload-smoke gate: offer **2× the [`sustainable_rate`]**
/// (measured in the same run) under [`OverloadPolicy::Shed`] and verify
/// that the service sheds instead of degrading:
///
/// * something was refused (the queues actually filled),
/// * admitted work stayed intact — zero lost/duplicate results, one winner
///   each (asserted inside [`open_loop_overload`]),
/// * no queue ever grew past its capacity,
/// * the accounting invariant balanced, and
/// * goodput stayed above a third of the sustainable rate (the service kept
///   serving while turning work away).
///
/// Returns the sustainable rate and the measurement at 2×.
///
/// # Errors
/// Returns a description of the first violated property.
pub fn overload_smoke_check() -> Result<(f64, OverloadResult), String> {
    let shards = 2;
    let sustainable = sustainable_rate(shards, 400, 4);
    let mut spec = OverloadSpec::shed(shards, 600, 4);
    spec.base_key = 10_000_000;
    let mut result = open_loop_overload(spec, sustainable * 2.0);
    result.multiplier = 2.0;
    if result.refused == 0 {
        return Err(format!(
            "expected shedding at 2x the sustainable rate ({sustainable:.0}/s), but all \
             {} submissions were admitted — the queues never filled",
            result.offered
        ));
    }
    if result.max_queue_depth > spec.queue_capacity {
        return Err(format!(
            "queue depth {} exceeded the configured capacity {}",
            result.max_queue_depth, spec.queue_capacity
        ));
    }
    if result.completed == 0 {
        return Err("the service completed nothing under overload".to_string());
    }
    if result.goodput_per_sec * 3.0 < sustainable {
        return Err(format!(
            "goodput collapsed under overload: {:.0}/s vs sustainable {sustainable:.0}/s",
            result.goodput_per_sec
        ));
    }
    Ok((sustainable, result))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_serves_and_verifies_a_small_storm() {
        let result = closed_loop(LoadSpec::concurrent(2, 64, 3));
        assert!(result.instances_per_sec > 0.0);
        assert!(result.p50_micros <= result.p95_micros);
        assert!(result.p95_micros <= result.p99_micros);
        assert!(result.p99_micros <= result.max_micros);
    }

    #[test]
    fn open_loop_completes_at_a_modest_rate() {
        let result = open_loop(LoadSpec::concurrent(2, 20, 3), 2000.0);
        assert!(result.instances_per_sec > 0.0);
        assert!(result.max_micros > 0);
    }

    #[test]
    fn sim_backend_load_also_verifies() {
        let spec = LoadSpec::concurrent(2, 32, 4).with_backend(BackendKind::Sim);
        let result = closed_loop(spec);
        assert!(result.instances_per_sec > 0.0);
    }

    #[test]
    fn retry_with_backoff_eventually_admits_against_a_tiny_queue() {
        let config = ServiceConfig::new(1, BackendKind::Async)
            .with_queue_capacity(1)
            .with_overload_policy(OverloadPolicy::Shed);
        let service = ElectionService::new(config);
        let tickets: Vec<Ticket> = (0..30)
            .map(|key| {
                submit_with_retry(&service, InstanceSpec::election(key, 3), 64)
                    .expect("backoff outlasts a queue of one")
            })
            .collect();
        for (key, ticket) in tickets.into_iter().enumerate() {
            assert_eq!(ticket.wait().unwrap().key, key as u64);
        }
        let stats = service.shutdown();
        assert_eq!(stats.completed, 30);
        stats.check_invariant().unwrap();
    }

    #[test]
    fn overload_sheds_but_never_corrupts_admitted_work() {
        // A rate far past anything 1 shard with a queue of 2 can serve.
        let mut spec = OverloadSpec::shed(1, 200, 3);
        spec.queue_capacity = 2;
        let result = open_loop_overload(spec, 50_000.0);
        assert!(result.refused > 0, "the tiny queue must fill");
        assert!(result.completed > 0, "the service keeps serving");
        assert!(result.max_queue_depth <= 2, "depth bounded by capacity");
        assert_eq!(
            result.offered,
            result.admitted + result.refused,
            "every offer is admitted or refused"
        );
        assert!(result.shed_fraction > 0.0);
    }

    #[test]
    fn the_sustainable_rate_is_the_goodput_of_a_saturated_pass() {
        let rate = sustainable_rate(1, 64, 3);
        assert!(rate.is_finite() && rate > 0.0, "{rate}");
    }

    #[test]
    fn every_section_reads_back_through_the_one_reader() {
        let points = vec![closed_loop(LoadSpec::concurrent(1, 16, 3))];
        let mut spec = OverloadSpec::shed(1, 40, 3);
        spec.queue_capacity = 2;
        spec.base_key = 500_000;
        let overload = vec![open_loop_overload(spec, 20_000.0)];
        let storm = executor_density_storm(32, 3);
        let metrics = points[0].metrics.as_ref().expect("metrics are on");
        let text = Document::new("service")
            .with_section("points", load_section("closed loop", &points))
            .with_section("overload", overload_section(&overload))
            .with_section("executor_storm", storm_section(&storm))
            .with_section("metrics", metrics_section(metrics))
            .render();
        let document = Document::parse(&text).expect("own output parses");
        let read = document
            .section("points")
            .and_then(|section| section.number("shards", "1", "instances_per_sec"))
            .expect("the smoke gate's lookup");
        assert!((read - points[0].instances_per_sec).abs() < 0.1);
        let overload_read = document.section("overload").expect("overload");
        assert_eq!(
            overload_read.number("multiplier", "0.00", "refused"),
            Ok(overload[0].refused as f64)
        );
        let storm_read = document.section("executor_storm").expect("storm");
        assert_eq!(storm_read.number("n", "3", "peak_in_flight"), Ok(32.0));
        let metrics_read = document.section("metrics").expect("metrics");
        assert_eq!(metrics_read.table.len(), 2, "one shard plus the aggregate");
        assert_eq!(metrics_read.number("shard", "all", "completed"), Ok(16.0));
        assert_eq!(
            metrics_read.number("shard", "0", "run_micros_count"),
            Ok(16.0)
        );
        assert_eq!(metrics_read.number("shard", "all", "fault_ops"), Ok(0.0));
    }

    #[test]
    fn executor_density_storm_holds_every_instance_in_flight() {
        let storm = executor_density_storm(200, 4);
        assert_eq!(storm.instances, 200);
        assert_eq!(
            storm.peak_in_flight, 200,
            "the staged batch is fully in flight before the workers are released"
        );
        assert!(storm.task_workers >= 2);
        assert!(storm.instances_per_sec > 0.0);
    }

    #[test]
    fn closed_loop_snapshot_attributes_every_instance() {
        let result = closed_loop(LoadSpec::concurrent(2, 64, 3));
        let snapshot = result.metrics.expect("metrics are on by default");
        let total = snapshot.aggregate();
        assert_eq!(total.admitted, 64);
        assert_eq!(total.completed, 64);
        assert_eq!(total.queue_wait_micros.count(), 64);
        assert_eq!(total.run_micros.count(), 64);
        assert_eq!(snapshot.per_shard.len(), 2);
    }

    #[test]
    fn sequential_reference_is_positive() {
        assert!(sequential_reference(LoadSpec::concurrent(1, 8, 3)) > 0.0);
    }
}
