//! The service workloads, on `ElectionService` with the `Async` backend and
//! [`SHARDS`] shards: closed loops, of elections alone and of elections
//! mixed with renamings. Every time is scaled to the reference speed
//! (`gauge`), read after each slice of the window with the service idle.
//!
//! In a traced run the second half of the measured window is traced, and
//! two probes below the service follow the stream: the executor
//! (`Executor::submit` → `InFlight::wait`) and the register bank (a
//! round-robin `DriveMachine` loop over `SharedRegisters` handles). Both
//! replay the run's first generated specs with timed protocols.

use crate::gauge::{self, Gauge};
use crate::gen;
use crate::trace::{self, Tracer};
use crate::wrap::{StepCounters, TimedMemory, TimedProtocol};
use crate::{heap, ratio, stats, Plan, RunReport};
use fle_model::{CancelToken, DriveMachine, DriveStep, Outcome, ProcId, Protocol};
use fle_runtime::{
    ExecResult, Executor, ExecutorConfig, FaultPlan, InFlight, RegisterHandle, SharedRegisters,
};
use fle_service::{
    BackendKind, ElectionService, InstanceResult, InstanceSpec, MetricsSnapshot, ServiceConfig,
    SubmitError, Ticket, Workload,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Service shards (one worker thread each).
pub const SHARDS: usize = 2;
/// Instances kept in flight.
pub const IN_FLIGHT: usize = 64;
/// The measured window runs in slices of this length, each followed by a
/// gauge reading.
const SLICE: Duration = Duration::from_millis(300);
/// Service start-ups per run; `setup_s` is their median.
const SETUPS: u64 = 101;
/// Spec index of the first start-up instance, far past any stream index.
const SETUP_INDEX: u64 = 1 << 62;
/// Specs the executor probe replays.
pub const EXEC_PROBE: u64 = 2_000;
/// Specs the register probe replays.
pub const REGS_PROBE: u64 = 500;

fn service_config() -> ServiceConfig {
    ServiceConfig::new(SHARDS, BackendKind::Async)
}

/// The protocols of one instance, exactly as the service's backends build
/// them.
fn participants(spec: &InstanceSpec) -> Vec<(ProcId, Box<dyn Protocol + Send>)> {
    match spec.workload {
        Workload::Election => fle_runtime::election_participants(spec.participants),
        Workload::Renaming => {
            fle_runtime::renaming_participants(spec.participants, spec.participants)
        }
    }
}

/// Every participant returned; an election has exactly one winner and only
/// losers besides, a renaming distinct names in `1..=participants`.
fn check_outcomes(spec: &InstanceSpec, outcomes: &BTreeMap<ProcId, Outcome>) -> Result<(), String> {
    let key = spec.key;
    if outcomes.len() != spec.participants {
        return Err(format!(
            "instance {key}: {} of {} participants returned",
            outcomes.len(),
            spec.participants
        ));
    }
    match spec.workload {
        Workload::Election => {
            let winners = outcomes.values().filter(|o| o.is_win()).count();
            let losers = outcomes.values().filter(|o| **o == Outcome::Lose).count();
            if winners != 1 || winners + losers != outcomes.len() {
                return Err(format!(
                    "instance {key}: {winners} winners, {losers} losers"
                ));
            }
        }
        Workload::Renaming => {
            let mut names = BTreeSet::new();
            for outcome in outcomes.values() {
                match outcome {
                    Outcome::Name(name)
                        if (1..=spec.participants).contains(name) && names.insert(*name) => {}
                    other => return Err(format!("instance {key}: bad or repeated {other}")),
                }
            }
        }
    }
    Ok(())
}

/// Check a ticket's resolution: it resolved under its own key, to a correct
/// outcome.
fn check_result(
    out: &mut RunReport,
    spec: &InstanceSpec,
    result: Result<InstanceResult, SubmitError>,
) -> Option<InstanceResult> {
    let checked = result
        .map_err(|error| format!("instance {}: {error}", spec.key))
        .and_then(|result| {
            if result.key == spec.key {
                check_outcomes(spec, &result.outcomes).map(|()| result)
            } else {
                Err(format!(
                    "instance {} resolved as key {}",
                    spec.key, result.key
                ))
            }
        });
    checked.map_err(|error| out.fail(error)).ok()
}

/// Start and stop the service [`SETUPS`] times and return the median
/// start-up time in seconds, each scaled by a gauge reading taken after it.
/// A start is done when the service has completed one instance. Runs after
/// the measured window, once the process-wide executor pool is up: the
/// first start-ups of a fresh process take three to five times as long as
/// the rest.
fn time_setups(seed: u64, gauge: &mut Gauge, out: &mut RunReport) -> f64 {
    let mut times = Vec::new();
    for attempt in 0..SETUPS {
        let spec = gen::service_spec(seed, SETUP_INDEX + attempt, false);
        let start = Instant::now();
        let service = ElectionService::new(service_config());
        let result = service.submit_wait(spec);
        let ns = start.elapsed().as_nanos() as f64;
        out.attempted += 1;
        check_result(out, &spec, result);
        stop_service(service, out);
        times.push(gauge::at_reference(ns, gauge.read()) / 1e9);
    }
    stats::median(&times)
}

/// Shut the service down and check its own books: the conservation law,
/// and the metrics layer against the counters.
fn stop_service(service: ElectionService, out: &mut RunReport) -> Option<MetricsSnapshot> {
    let (stats, metrics) = service.shutdown_with_metrics();
    if let Err(error) = stats.check_invariant() {
        out.fail(error);
    }
    if stats.failed + stats.shed + stats.drained + stats.rejected > 0 {
        out.fail(format!("the service lost instances: {stats:?}"));
    }
    match &metrics {
        Some(metrics) => {
            if let Err(error) = stats.check_metrics(metrics) {
                out.fail(error);
            }
        }
        None => out.fail("the service recorded no metrics".to_string()),
    }
    metrics
}

/// Latency samples of the measured window, in nanoseconds.
#[derive(Default)]
struct Latencies {
    all: Vec<f64>,
    elections: Vec<f64>,
    renamings: Vec<f64>,
}

impl Latencies {
    fn record(&mut self, workload: Workload, ns: f64) {
        self.all.push(ns);
        match workload {
            Workload::Election => self.elections.push(ns),
            Workload::Renaming => self.renamings.push(ns),
        }
    }

    /// The end-to-end latency metrics, and the per-kind ones.
    fn report(self, out: &mut RunReport) {
        let all = stats::sorted(self.all);
        out.metric("latency_p50_us", stats::quantile(&all, 0.5) / 1e3, "us");
        out.metric("latency_p95_us", stats::quantile(&all, 0.95) / 1e3, "us");
        out.metric("instances", all.len() as f64, "count");
        for (kind, samples) in [("elect", self.elections), ("rename", self.renamings)] {
            if samples.is_empty() {
                continue;
            }
            let sorted = stats::sorted(samples);
            for (label, q) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
                let name = format!("svc.{kind}_{label}_us");
                out.metric(&name, stats::quantile(&sorted, q) / 1e3, "us");
            }
        }
    }
}

/// The service's own per-layer numbers: queue wait and run time, how busy
/// the shards were over the `loaded_ns` the stream kept them loaded, and
/// how the mean latency splits into queue wait and run time.
fn service_layers(
    out: &mut RunReport,
    metrics: &MetricsSnapshot,
    loaded_ns: u64,
    latency_mean_ns: f64,
) {
    let total = metrics.aggregate();
    let (wait, run) = (&total.queue_wait_micros, &total.run_micros);
    for (label, hist) in [("queue_wait", wait), ("run", run)] {
        for (q_label, q) in [("p50", 0.5), ("p95", 0.95)] {
            let name = format!("svc.{label}_us_{q_label}");
            out.metric(&name, hist.value_at_quantile(q) as f64, "us");
        }
    }
    let busy_ns = run.mean() * run.count() as f64 * 1e3;
    out.metric(
        "svc.busy_frac",
        ratio(busy_ns, (SHARDS as u64 * loaded_ns) as f64),
        "ratio",
    );
    out.metric(
        "svc.queue_high_water",
        total.queue_high_water as f64,
        "count",
    );
    out.metric(
        "svc.wait_share",
        ratio(wait.mean() * 1e3, latency_mean_ns),
        "ratio",
    );
    out.metric(
        "svc.run_share",
        ratio(run.mean() * 1e3, latency_mean_ns),
        "ratio",
    );
}

/// Closed loop of elections: capacity.
pub fn saturate(plan: &Plan) -> RunReport {
    closed_loop(plan, false)
}

/// Closed loop of elections with every ninth instance a renaming: the
/// shard queues used two ways.
pub fn mixed(plan: &Plan) -> RunReport {
    closed_loop(plan, true)
}

/// One thread's closed loop: [`IN_FLIGHT`] n = 16 instances in flight —
/// elections, or in a `mixed` stream every ninth a renaming — the next
/// submitted as soon as the oldest resolves.
struct Stream<'a> {
    service: &'a ElectionService,
    seed: u64,
    mixed: bool,
    next: u64,
    flight: VecDeque<(InstanceSpec, Ticket)>,
}

impl Stream<'_> {
    /// Keep the loop going until `stop`, then resolve what is still in
    /// flight. Every instance that resolved correctly is passed to `done`
    /// with its latency: the service's submit-to-completion time, in
    /// nanoseconds.
    fn run_until(
        &mut self,
        stop: Instant,
        out: &mut RunReport,
        done: &mut impl FnMut(Workload, f64),
    ) {
        loop {
            while self.flight.len() < IN_FLIGHT && Instant::now() < stop {
                let spec = gen::service_spec(self.seed, self.next, self.mixed);
                self.next += 1;
                out.attempted += 1;
                match trace::span("svc.submit", spec.key, || self.service.submit(spec)) {
                    Ok(ticket) => self.flight.push_back((spec, ticket)),
                    Err(error) => out.fail(format!("submit {}: {error}", spec.key)),
                }
            }
            let Some((spec, ticket)) = self.flight.pop_front() else {
                return;
            };
            let result = trace::span("svc.wait", spec.key, || ticket.wait());
            trace::span("gen.check", spec.key, || {
                if let Some(result) = check_result(out, &spec, result) {
                    done(spec.workload, result.latency.as_nanos() as f64);
                }
            });
        }
    }
}

/// Run the closed loop for the warm-up, then for the measured window in
/// [`SLICE`]s. After each slice the loop drains and, with the service idle,
/// the gauge reads the host's speed: the slice's latencies and length are
/// scaled by that reading.
fn closed_loop(plan: &Plan, mixed: bool) -> RunReport {
    let mut out = RunReport::default();
    let mut gauge = Gauge::new();
    heap::reset_peak();
    let service = ElectionService::new(service_config());
    let mut stream = Stream {
        service: &service,
        seed: plan.seed,
        mixed,
        next: 0,
        flight: VecDeque::new(),
    };
    // Raw latency, summed over every instance, warm-up included (as the
    // service's own metrics are).
    let (mut latency_sum_ns, mut resolved) = (0.0, 0u64);
    let mut sum = |ns: f64| {
        latency_sum_ns += ns;
        resolved += 1;
    };
    let origin = Instant::now();
    stream.run_until(origin + plan.warmup, &mut out, &mut |_, ns| sum(ns));
    // Time the stream kept the service loaded: gauge readings excluded.
    let mut loaded_ns = origin.elapsed().as_nanos() as u64;
    // The service's memory under load, read before the window: from then
    // on the latency samples this loop keeps would dominate the heap.
    out.metric("peak_heap_mb", heap::peak_mb(), "MB");

    let window = Instant::now();
    let end = window + plan.measure;
    let traced_from = if plan.trace {
        window + plan.measure / 2
    } else {
        end
    };
    let mut latencies = Latencies::default();
    let mut readings = Vec::new();
    let mut tracer = Tracer::default();
    // Completions, and scaled slice time, of the untraced and traced halves.
    let mut halves = [(0u64, 0.0f64); 2];
    while Instant::now() < end {
        let slice = Instant::now();
        let stop = (slice + SLICE).min(end);
        let traced = slice >= traced_from;
        let mut done = Vec::new();
        let mut keep = |workload, ns| {
            sum(ns);
            done.push((workload, ns));
        };
        if traced {
            trace::scoped(&mut tracer, || stream.run_until(stop, &mut out, &mut keep));
        } else {
            stream.run_until(stop, &mut out, &mut keep);
        }
        let slice_ns = slice.elapsed().as_nanos() as f64;
        loaded_ns += slice_ns as u64;
        let reading = gauge.read();
        readings.push(reading);
        let half = &mut halves[usize::from(traced)];
        half.0 += done.len() as u64;
        half.1 += gauge::at_reference(slice_ns, reading);
        for (workload, ns) in done {
            latencies.record(workload, gauge::at_reference(ns, reading));
        }
    }
    let metrics = stop_service(service, &mut out);
    let setup_s = time_setups(plan.seed, &mut gauge, &mut out);

    out.metric("setup_s", setup_s, "s");
    let completed = halves[0].0 + halves[1].0;
    let scaled_ns = halves[0].1 + halves[1].1;
    out.metric(
        "throughput_per_s",
        ratio(completed as f64 * 1e9, scaled_ns),
        "1/s",
    );
    out.metric(
        "gauge.slowdown",
        stats::median(&readings) / gauge::REFERENCE_NS,
        "ratio",
    );
    let latency_mean_ns = ratio(latency_sum_ns, resolved as f64);
    latencies.report(&mut out);
    if let Some(metrics) = &metrics {
        service_layers(&mut out, metrics, loaded_ns, latency_mean_ns);
    }
    if plan.trace {
        // Completions per scaled second of each half of the window.
        let [untraced, traced] = halves.map(|(count, ns)| ratio(count as f64, ns));
        let overhead = ratio(untraced, traced) - 1.0;
        probes(plan.seed, mixed, &mut out, tracer, overhead);
    }
    out
}

/// The traced run's layers below the service, and the trace's own
/// accounting over every traced section.
fn probes(seed: u64, mixed: bool, out: &mut RunReport, mut tracer: Tracer, overhead: f64) {
    tracer.absorb(exec_probe(seed, mixed, out));
    tracer.absorb(regs_probe(seed, mixed, out));
    let submit = tracer.stats("svc.submit");
    out.metric(
        "svc.submit_us_p50",
        submit.hist.value_at_quantile(0.5) as f64 / 1e3,
        "us",
    );
    out.metric(
        "svc.submit_us_p99",
        submit.hist.value_at_quantile(0.99) as f64 / 1e3,
        "us",
    );
    out.metric("trace.overhead_frac", overhead, "ratio");
    out.metric(
        "trace.unattributed_frac",
        tracer.unattributed_frac(),
        "ratio",
    );
    out.spans = Some(tracer.raw_json());
}

/// Replay the first [`EXEC_PROBE`] specs through a benchmark-owned
/// executor, configured as the service's, keeping [`SHARDS`] instances in
/// flight as the shard workers do.
fn exec_probe(seed: u64, mixed: bool, out: &mut RunReport) -> Tracer {
    let executor = Executor::new(ExecutorConfig::default());
    let registers = Arc::new(SharedRegisters::new(service_config().register_shards));
    let counters = Arc::new(StepCounters::default());
    let mut latencies = Latencies::default();
    let mut settle = |(spec, started, flight): (InstanceSpec, Instant, InFlight),
                      out: &mut RunReport| {
        out.attempted += 1;
        let result = trace::span("exec.wait", spec.key, || flight.wait());
        let ns = started.elapsed().as_nanos() as f64;
        match result {
            ExecResult::Completed(report) => match check_outcomes(&spec, &report.outcomes) {
                Ok(()) => latencies.record(spec.workload, ns),
                Err(error) => out.fail(error),
            },
            ExecResult::Cancelled => out.fail(format!("instance {} was cancelled", spec.key)),
            ExecResult::Panicked(_) => out.fail(format!("instance {} panicked", spec.key)),
        }
        registers.retire(spec.key);
    };
    let mut tracer = Tracer::default();
    trace::scoped(&mut tracer, || {
        let mut flight = VecDeque::new();
        for index in 0..EXEC_PROBE {
            let spec = gen::service_spec(seed, index, mixed);
            let protocols = participants(&spec)
                .into_iter()
                .map(|(proc, protocol)| {
                    let timed = TimedProtocol::counted(protocol, &counters);
                    (proc, Box::new(timed) as Box<dyn Protocol + Send>)
                })
                .collect();
            let started = Instant::now();
            let submitted = trace::span("exec.submit", spec.key, || {
                executor.submit(
                    &registers,
                    spec.key,
                    spec.seed,
                    protocols,
                    &FaultPlan::default(),
                    CancelToken::none(),
                )
            });
            flight.push_back((spec, started, submitted));
            if flight.len() == SHARDS {
                settle(flight.pop_front().expect("non-empty"), out);
            }
        }
        while let Some(pending) = flight.pop_front() {
            settle(pending, out);
        }
    });
    for (kind, samples) in [
        ("elect", &latencies.elections),
        ("rename", &latencies.renamings),
    ] {
        if !samples.is_empty() {
            let sorted = stats::sorted(samples.clone());
            let name = format!("exec.{kind}_us_p50");
            out.metric(&name, stats::quantile(&sorted, 0.5) / 1e3, "us");
        }
    }
    out.metric(
        "exec.peak_in_flight",
        executor.stats().peak_in_flight as f64,
        "count",
    );
    // Protocol time per instance, spread over the workers: the rest of an
    // instance's time is the executor's and the registers'.
    let per_instance_ns = ratio(counters.ns() as f64, EXEC_PROBE as f64);
    out.metric("exec.proto_us_per_instance", per_instance_ns / 1e3, "us");
    executor.shutdown();
    tracer
}

/// One instance driven to completion over the register bank.
#[derive(Default)]
struct Driven {
    outcomes: BTreeMap<ProcId, Outcome>,
    ops: u64,
    steps: u64,
    max_calls: u64,
    coin_flips: u64,
}

/// A participant of the round-robin loop.
struct Task {
    proc: ProcId,
    machine: DriveMachine,
    protocol: TimedProtocol<Box<dyn Protocol + Send>>,
    memory: TimedMemory<RegisterHandle>,
    done: bool,
}

/// Run every participant of `spec` over `registers`, one protocol step
/// (and the register operation it asks for) per participant per turn.
fn round_robin(registers: &Arc<SharedRegisters>, spec: &InstanceSpec) -> Driven {
    let mut tasks: Vec<Task> = participants(spec)
        .into_iter()
        .map(|(proc, protocol)| Task {
            proc,
            machine: DriveMachine::new(),
            protocol: TimedProtocol::spans(protocol, spec.key),
            // Coins seeded as the executor seeds them.
            memory: TimedMemory::new(registers.handle(spec.key, proc, spec.seed), spec.key),
            done: false,
        })
        .collect();
    let mut driven = Driven::default();
    let mut live = tasks.len();
    while live > 0 {
        for task in tasks.iter_mut().filter(|task| !task.done) {
            driven.steps += 1;
            match task.machine.step(&mut task.protocol) {
                DriveStep::NeedOp(op) => {
                    driven.ops += 1;
                    let response = op.perform(&mut task.memory);
                    task.machine.resume(response);
                }
                DriveStep::Done(outcome) => {
                    driven.outcomes.insert(task.proc, outcome);
                    task.done = true;
                    live -= 1;
                }
            }
        }
    }
    for task in &tasks {
        let metrics = task.memory.inner().metrics();
        driven.max_calls = driven.max_calls.max(metrics.communicate_calls);
        driven.coin_flips += metrics.coin_flips;
    }
    registers.retire(spec.key);
    driven
}

/// Replay the first [`REGS_PROBE`] specs through the register bank on this
/// thread, every protocol step and register operation a span.
fn regs_probe(seed: u64, mixed: bool, out: &mut RunReport) -> Tracer {
    let registers = Arc::new(SharedRegisters::new(service_config().register_shards));
    let mut tracer = Tracer::default();
    let mut totals = Driven::default();
    let mut per_kind = [(0u64, 0u64); 2];
    trace::scoped(&mut tracer, || {
        for index in 0..REGS_PROBE {
            let spec = gen::service_spec(seed, index, mixed);
            let driven = trace::span("gen.drive", spec.key, || round_robin(&registers, &spec));
            out.attempted += 1;
            if let Err(error) = check_outcomes(&spec, &driven.outcomes) {
                out.fail(error);
            }
            let kind = &mut per_kind[usize::from(spec.workload == Workload::Renaming)];
            kind.0 += 1;
            kind.1 += driven.ops;
            totals.steps += driven.steps;
            totals.max_calls += driven.max_calls;
            totals.coin_flips += driven.coin_flips;
        }
    });
    let per_instance = |total: u64| ratio(total as f64, REGS_PROBE as f64);
    let active = tracer.active_ns() as f64;
    out.metric(
        "regs.propagate_ns",
        tracer.stats("regs.propagate").mean_ns(),
        "ns",
    );
    out.metric(
        "regs.collect_ns",
        tracer.stats("regs.collect").mean_ns(),
        "ns",
    );
    out.metric(
        "regs.share",
        ratio(tracer.self_ns("regs.") as f64, active),
        "ratio",
    );
    let [elections, renamings] = per_kind;
    out.metric(
        "regs.ops_per_elect",
        ratio(elections.1 as f64, elections.0 as f64),
        "count",
    );
    out.metric(
        "regs.ops_per_rename",
        ratio(renamings.1 as f64, renamings.0 as f64),
        "count",
    );
    out.metric("proto.step_ns", tracer.stats("proto.step").mean_ns(), "ns");
    out.metric(
        "proto.share",
        ratio(tracer.self_ns("proto.") as f64, active),
        "ratio",
    );
    out.metric("proto.steps", per_instance(totals.steps), "count");
    out.metric("proto.max_calls", per_instance(totals.max_calls), "count");
    out.metric("proto.coin_flips", per_instance(totals.coin_flips), "count");
    if tracer.stats("proto.step").count != totals.steps {
        out.fail("proto.step spans differ from the driven step count".to_string());
    }
    tracer
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_round_robin_loop_elects_and_renames() {
        let registers = Arc::new(SharedRegisters::new(4));
        for index in 0..18 {
            let spec = gen::service_spec(11, index, true);
            let driven = round_robin(&registers, &spec);
            assert_eq!(check_outcomes(&spec, &driven.outcomes), Ok(()));
            assert_eq!(driven.steps, driven.ops + spec.participants as u64);
        }
        assert_eq!(registers.live_namespaces(), 0);
    }

    #[test]
    fn outcome_checks_reject_wrong_results() {
        let election = InstanceSpec::election(1, 2);
        let two_winners: BTreeMap<_, _> =
            [(ProcId(0), Outcome::Win), (ProcId(1), Outcome::Win)].into();
        assert!(check_outcomes(&election, &two_winners).is_err());
        let missing: BTreeMap<_, _> = [(ProcId(0), Outcome::Win)].into();
        assert!(check_outcomes(&election, &missing).is_err());
        let renaming = InstanceSpec::renaming(2, 2);
        let repeated: BTreeMap<_, _> =
            [(ProcId(0), Outcome::Name(1)), (ProcId(1), Outcome::Name(1))].into();
        assert!(check_outcomes(&renaming, &repeated).is_err());
        let out_of_range: BTreeMap<_, _> =
            [(ProcId(0), Outcome::Name(1)), (ProcId(1), Outcome::Name(3))].into();
        assert!(check_outcomes(&renaming, &out_of_range).is_err());
        let tight: BTreeMap<_, _> =
            [(ProcId(0), Outcome::Name(2)), (ProcId(1), Outcome::Name(1))].into();
        assert_eq!(check_outcomes(&renaming, &tight), Ok(()));
    }
}
