//! The simulator workloads: the sequential engine (`Simulator`, driven one
//! `step_once` at a time) and the partitioned engine
//! (`ParallelSimulator::run_canonical`).
//!
//! Each run draws a fixed pool of elections from its seed and runs the pool
//! pass after pass until the measured window is over. An election is
//! deterministic, so every pass repeats the same work, and every repeat
//! must execute exactly the events of the first. Each pass of an election
//! is scaled to the reference speed by a gauge reading taken right after it
//! (see `gauge`), and the election's time is the median of its passes.
//!
//! A traced run executes every election twice, untraced and traced. Both
//! executions do identical work: the pair prices the tracing, and every
//! exact count of the traced execution is checked against the untraced one.

use crate::gauge::{self, Gauge};
use crate::wrap::{StepCounters, TimedAdversary, TimedProtocol};
use crate::{gen, heap, ratio, stats, trace, Plan, RunReport};
use fle_core::LeaderElection;
use fle_model::ProcId;
use fle_sim::{
    Adversary, ExecutionReport, ParallelSimulator, RandomAdversary, RoundCrashPlan, SimConfig,
    SimError, Simulator,
};
use std::sync::Arc;
use std::time::Instant;

/// System size of the sequential workload (every processor participates).
pub const SEQUENTIAL_N: usize = 96;
/// Elections in the sequential workload's pool: enough that its 95th
/// percentile has ten elections beyond it.
pub const SEQUENTIAL_POOL: u64 = 200;
/// System size of the partitioned workload.
pub const PARTITIONED_N: usize = 256;
/// Elections in the partitioned workload's pool: its elections vary more
/// in length than the sequential workload's (events CV 0.20 against 0.14),
/// so its 95th percentile needs more of them to repeat from seed to seed.
pub const PARTITIONED_POOL: u64 = 300;
/// Contenders of the partitioned workload (processors `0..k` participate).
pub const PARTITIONED_K: usize = 16;
/// Partitions of the partitioned workload.
pub const PARTITIONS: usize = 2;
/// Worker threads of the partitioned workload. The engine forks and joins
/// its workers every super-round; on two shared virtual processors that
/// measures how fast the host wakes them (two workers ran 10–30% slower
/// than one, and twice as unsteady), so the partitions run on one. The
/// report is the same for every worker count.
pub const PARTITION_WORKERS: usize = 1;
/// Size of the untimed warm-up election.
const WARMUP_N: usize = 64;
/// The exact counts (`sim.events`, `proto.steps`, …) are per-election means
/// over the pool's first elections, this many.
pub const COUNTED: u64 = 3;

/// One timed election.
struct Election {
    setup_ns: u64,
    run_ns: u64,
    /// The most live heap while it was set up and run.
    peak_heap_mb: f64,
    report: ExecutionReport,
}

/// The paper's cost measures of one election. Every field is an exact
/// count, a function of the seed alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    events: u64,
    messages: u64,
    steps: u64,
    max_calls: u64,
    coin_flips: u64,
}

impl Counts {
    /// The counts of a finished election. Every protocol step emits exactly
    /// one action — a communicate call, a coin flip or the return — so the
    /// step count follows from the report.
    pub fn of(report: &ExecutionReport) -> Self {
        let metrics = &report.metrics;
        Counts {
            events: report.events_executed,
            messages: report.total_messages(),
            steps: metrics.total_communicate_calls()
                + metrics.total_coin_flips()
                + report.outcomes.len() as u64,
            max_calls: report.max_communicate_calls(),
            coin_flips: metrics.total_coin_flips(),
        }
    }

    fn add(&mut self, other: Counts) {
        self.events += other.events;
        self.messages += other.messages;
        self.steps += other.steps;
        self.max_calls += other.max_calls;
        self.coin_flips += other.coin_flips;
    }

    fn report(&self, elections: u64, out: &mut RunReport) {
        let per = |total: u64| ratio(total as f64, elections as f64);
        out.metric("sim.events", per(self.events), "count");
        out.metric("sim.messages", per(self.messages), "count");
        out.metric("proto.steps", per(self.steps), "count");
        out.metric("proto.max_calls", per(self.max_calls), "count");
        out.metric("proto.coin_flips", per(self.coin_flips), "count");
    }
}

/// Check an election's outcome: every participant returned and exactly one
/// won, linearizably.
fn check_election(out: &mut RunReport, report: &ExecutionReport, participants: usize, seed: u64) {
    out.attempted += 1;
    if report.outcomes.len() != participants {
        out.fail(format!(
            "election {seed}: {} of {participants} participants returned",
            report.outcomes.len()
        ));
    } else if report.winners().len() != 1 {
        out.fail(format!(
            "election {seed}: {} winners",
            report.winners().len()
        ));
    } else if !fle_core::checks::linearizable_test_and_set(report) {
        out.fail(format!("election {seed}: not a linearizable test-and-set"));
    }
}

/// One full-participation election of the sequential engine under a random
/// adversary, both seeded `seed` (as `BENCH_baseline.json` runs them).
/// Traced, its setup, every `step_once` and the finish are spans, and so are
/// the adversary's decisions and the protocol steps inside them.
fn sequential_election(n: usize, seed: u64, traced: bool) -> Result<Election, SimError> {
    heap::reset_peak();
    let start = Instant::now();
    let mut sim = trace::span("sim.setup", seed, || {
        let mut sim = Simulator::new(SimConfig::new(n).with_seed(seed));
        for index in 0..n {
            let proc = ProcId(index);
            let protocol = LeaderElection::new(proc);
            if traced {
                sim.add_participant(proc, Box::new(TimedProtocol::spans(protocol, seed)));
            } else {
                sim.add_participant(proc, Box::new(protocol));
            }
        }
        sim
    });
    let built = Instant::now();
    let random = RandomAdversary::with_seed(seed);
    let mut adversary: Box<dyn Adversary> = if traced {
        Box::new(TimedAdversary::new(random, seed))
    } else {
        Box::new(random)
    };
    // `run` is this loop; `step_once` reports completion without an event,
    // so every span here is one event.
    while !sim.is_complete() {
        trace::span("sim.step", seed, || sim.step_once(adversary.as_mut()))?;
    }
    let report = trace::span("sim.finish", seed, || sim.finish());
    let finished = Instant::now();
    let peak_heap_mb = heap::peak_mb();
    trace::span("sim.drop", seed, || drop(sim));
    Ok(Election {
        setup_ns: (built - start).as_nanos() as u64,
        run_ns: (finished - built).as_nanos() as u64,
        peak_heap_mb,
        report,
    })
}

/// One k-of-n election of the partitioned engine, canonical schedule,
/// crash-free. With `counters`, the protocols time their steps into them.
fn partitioned_election(
    seed: u64,
    counters: Option<&Arc<StepCounters>>,
) -> Result<Election, SimError> {
    heap::reset_peak();
    let start = Instant::now();
    let mut sim = trace::span("part.build", seed, || {
        let config = SimConfig::new(PARTITIONED_N)
            .with_seed(seed)
            .with_partitions(PARTITIONS);
        let mut sim = ParallelSimulator::new(config).with_workers(PARTITION_WORKERS);
        for index in 0..PARTITIONED_K {
            let proc = ProcId(index);
            let protocol = LeaderElection::new(proc);
            match counters {
                Some(counters) => {
                    sim.add_participant(proc, Box::new(TimedProtocol::counted(protocol, counters)));
                }
                None => sim.add_participant(proc, Box::new(protocol)),
            }
        }
        sim
    });
    let built = Instant::now();
    let report = trace::span("part.run", seed, || {
        sim.run_canonical(&RoundCrashPlan::none())
    })?;
    let finished = Instant::now();
    let peak_heap_mb = heap::peak_mb();
    trace::span("part.drop", seed, || drop(sim));
    Ok(Election {
        setup_ns: (built - start).as_nanos() as u64,
        run_ns: (finished - built).as_nanos() as u64,
        peak_heap_mb,
        report,
    })
}

/// The scaled runs of one election of the pool.
#[derive(Clone, Default)]
struct Runs {
    events: u64,
    setup_ns: Vec<f64>,
    run_ns: Vec<f64>,
    peak_heap_mb: Vec<f64>,
}

/// What every simulator workload measures, untraced: per pool election,
/// its runs scaled to the reference speed.
struct Tally {
    pool: Vec<Runs>,
    readings: Vec<f64>,
    counted: u64,
    counts: Counts,
}

impl Tally {
    fn new(pool: u64) -> Self {
        Tally {
            pool: vec![Runs::default(); pool as usize],
            readings: Vec::new(),
            counted: 0,
            counts: Counts::default(),
        }
    }

    /// Record a run of pool election `index`, scaled by the gauge
    /// `reading` taken right after it; a repeat that executed other events
    /// than the first run is a failed check.
    fn add(&mut self, index: u64, election: &Election, reading: f64, out: &mut RunReport) {
        self.readings.push(reading);
        let events = election.report.events_executed;
        let runs = &mut self.pool[index as usize];
        if runs.run_ns.is_empty() {
            runs.events = events;
            if index < COUNTED {
                self.counted += 1;
                self.counts.add(Counts::of(&election.report));
            }
        } else if runs.events != events {
            out.fail(format!(
                "pool election {index}: a repeat executed {events} events, the first {}",
                runs.events
            ));
        }
        let scale = |ns: u64| gauge::at_reference(ns as f64, reading);
        runs.setup_ns.push(scale(election.setup_ns));
        runs.run_ns.push(scale(election.run_ns));
        runs.peak_heap_mb.push(election.peak_heap_mb);
    }

    /// The end-to-end metrics over the pool, each election at the median of
    /// its scaled runs: engine throughput (the median election's events
    /// per second of run time), the run time of one election, and the
    /// memory the median election needs.
    fn report(self, out: &mut RunReport) {
        let ran: Vec<&Runs> = self.pool.iter().filter(|r| !r.run_ns.is_empty()).collect();
        let column = |f: &dyn Fn(&Runs) -> f64| ran.iter().map(|r| f(r)).collect::<Vec<f64>>();
        let run_ns = stats::sorted(column(&|r| stats::median(&r.run_ns)));
        out.metric(
            "setup_s",
            stats::median(&column(&|r| stats::median(&r.setup_ns))) / 1e9,
            "s",
        );
        out.metric(
            "peak_heap_mb",
            stats::median(&column(&|r| stats::median(&r.peak_heap_mb))),
            "MB",
        );
        out.metric(
            "throughput_per_s",
            stats::median(&column(&|r| {
                ratio(r.events as f64 * 1e9, stats::median(&r.run_ns))
            })),
            "1/s",
        );
        out.metric("latency_p50_us", stats::quantile(&run_ns, 0.5) / 1e3, "us");
        out.metric("latency_p95_us", stats::quantile(&run_ns, 0.95) / 1e3, "us");
        out.metric("elections", ran.len() as f64, "count");
        out.metric("runs", self.readings.len() as f64, "count");
        out.metric(
            "gauge.slowdown",
            stats::median(&self.readings) / gauge::REFERENCE_NS,
            "ratio",
        );
        self.counts.report(self.counted, out);
    }
}

/// What the traced executions of a run add up to.
#[derive(Default)]
struct Traced {
    tracer: trace::Tracer,
    /// Run time of the elections executed both ways, untraced and traced.
    untraced_ns: u64,
    traced_ns: u64,
    /// Protocol steps of those elections, from the untraced reports.
    steps: u64,
}

impl Traced {
    /// The trace's own accounting, and the raw span trees.
    fn report(self, out: &mut RunReport) {
        let overhead = ratio(self.traced_ns as f64, self.untraced_ns as f64) - 1.0;
        out.metric("trace.overhead_frac", overhead, "ratio");
        out.metric(
            "trace.unattributed_frac",
            self.tracer.unattributed_frac(),
            "ratio",
        );
        out.spans = Some(self.tracer.raw_json());
    }
}

/// Run the pool of `pool` elections seeded from `plan.seed` (at 1/20 of
/// it in a quick run), pass after pass: one whole pass, then on until
/// `plan.measure` has passed. Each run is untraced and, in a traced run,
/// also traced — every other run traced first, so that running second (on
/// warm memory) favours neither — and a gauge reading follows it.
/// `elect(seed, traced)` runs one election.
fn measure(
    plan: &Plan,
    out: &mut RunReport,
    participants: usize,
    pool: u64,
    mut elect: impl FnMut(u64, bool) -> Result<Election, SimError>,
) -> (Tally, Traced) {
    let pool = if plan.quick { pool.div_ceil(20) } else { pool };
    let mut gauge = Gauge::new();
    let mut tally = Tally::new(pool);
    let mut traced = Traced::default();
    let start = Instant::now();
    let mut run = 0;
    while run < pool || start.elapsed() < plan.measure {
        let index = run % pool;
        let seed = gen::election_seed(plan.seed, index);
        let traced_first = plan.trace && run % 2 == 1;
        run += 1;
        let early = if traced_first {
            Some(trace::scoped(&mut traced.tracer, || elect(seed, true)))
        } else {
            None
        };
        let election = match elect(seed, false) {
            Ok(election) => election,
            Err(error) => {
                out.attempted += 1;
                out.fail(format!("election {seed}: {error}"));
                continue;
            }
        };
        check_election(out, &election.report, participants, seed);
        if plan.trace {
            let twin = match early {
                Some(twin) => twin,
                None => trace::scoped(&mut traced.tracer, || elect(seed, true)),
            };
            match twin {
                Ok(twin) => {
                    check_election(out, &twin.report, participants, seed);
                    let counts = Counts::of(&election.report);
                    if Counts::of(&twin.report) != counts {
                        out.fail(format!("election {seed}: traced counts differ"));
                    }
                    traced.untraced_ns += election.run_ns;
                    traced.traced_ns += twin.run_ns;
                    traced.steps += counts.steps;
                }
                Err(error) => {
                    out.attempted += 1;
                    out.fail(format!("traced election {seed}: {error}"));
                }
            }
        }
        tally.add(index, &election, gauge.read(), out);
    }
    (tally, traced)
}

/// The sequential engine at n = [`SEQUENTIAL_N`], all processors
/// participating, random adversary.
pub fn sequential(plan: &Plan) -> RunReport {
    let mut out = RunReport::default();
    // Untimed warm-up: the arena pool, caches and lazy statics.
    let warm_seed = gen::election_seed(plan.seed, 0);
    match sequential_election(WARMUP_N, warm_seed, false) {
        Ok(warm) => check_election(&mut out, &warm.report, WARMUP_N, warm_seed),
        Err(error) => out.fail(format!("warm-up election: {error}")),
    }
    let (tally, traced) = measure(
        plan,
        &mut out,
        SEQUENTIAL_N,
        SEQUENTIAL_POOL,
        |seed, timed| sequential_election(SEQUENTIAL_N, seed, timed),
    );
    tally.report(&mut out);
    if plan.trace {
        let tracer = &traced.tracer;
        // Every traced protocol step was a span: their count must equal the
        // step count derived from the untraced reports.
        if tracer.stats("proto.step").count != traced.steps {
            out.fail("proto.step spans differ from the derived step count".to_string());
        }
        let active = tracer.active_ns() as f64;
        let step = tracer.stats("sim.step");
        out.metric("sim.step_ns", step.mean_ns(), "ns");
        out.metric(
            "sim.self_ns",
            ratio(step.self_ns as f64, step.count as f64),
            "ns",
        );
        out.metric(
            "sim.self_share",
            ratio(tracer.self_ns("sim.") as f64, active),
            "ratio",
        );
        out.metric("adv.decide_ns", tracer.stats("adv.decide").mean_ns(), "ns");
        out.metric(
            "adv.share",
            ratio(tracer.self_ns("adv.") as f64, active),
            "ratio",
        );
        out.metric("proto.step_ns", tracer.stats("proto.step").mean_ns(), "ns");
        out.metric(
            "proto.share",
            ratio(tracer.self_ns("proto.") as f64, active),
            "ratio",
        );
        traced.report(&mut out);
    }
    out
}

/// The partitioned engine: one k-of-n election at a time, n =
/// [`PARTITIONED_N`], k = [`PARTITIONED_K`], over [`PARTITIONS`]
/// partitions, canonical crash-free schedule.
pub fn partitioned(plan: &Plan) -> RunReport {
    let mut out = RunReport::default();
    let warm_seed = gen::election_seed(plan.seed, 0);
    match partitioned_election(warm_seed, None) {
        Ok(warm) => check_election(&mut out, &warm.report, PARTITIONED_K, warm_seed),
        Err(error) => out.fail(format!("warm-up election: {error}")),
    }
    let counters = Arc::new(StepCounters::default());
    let (tally, traced) = measure(
        plan,
        &mut out,
        PARTITIONED_K,
        PARTITIONED_POOL,
        |seed, timed| partitioned_election(seed, timed.then_some(&counters)),
    );
    tally.report(&mut out);
    if plan.trace {
        if counters.steps() != traced.steps {
            out.fail("timed protocol steps differ from the derived step count".to_string());
        }
        let run = traced.tracer.stats("part.run");
        // Protocol steps run on the partition workers; their time is shared
        // out over every worker's share of the run.
        let workers = PARTITION_WORKERS.min(PARTITIONS) as u64;
        let proto_share = ratio(counters.ns() as f64, (workers * run.total_ns) as f64);
        out.metric("part.run_s", run.mean_ns() / 1e9, "s");
        out.metric(
            "proto.step_ns",
            ratio(counters.ns() as f64, counters.steps() as f64),
            "ns",
        );
        out.metric("proto.share", proto_share, "ratio");
        out.metric("part.self_share", 1.0 - proto_share, "ratio");
        traced.report(&mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_and_untraced_elections_count_the_same() {
        for seed in [0, 7] {
            let untraced = sequential_election(64, seed, false).unwrap();
            let mut tracer = trace::Tracer::default();
            let traced =
                trace::scoped(&mut tracer, || sequential_election(64, seed, true)).unwrap();
            let counts = Counts::of(&untraced.report);
            assert_eq!(counts, Counts::of(&traced.report));
            assert_eq!(tracer.stats("proto.step").count, counts.steps);
            assert_eq!(tracer.stats("sim.step").count, counts.events);
            assert!(tracer.stats("adv.decide").count > 0);
        }
    }

    #[test]
    fn each_pool_election_counts_at_the_median_of_its_scaled_runs() {
        let run = |events, run_ns, setup_ns| Election {
            setup_ns,
            run_ns,
            peak_heap_mb: 1.0,
            report: ExecutionReport {
                events_executed: events,
                ..ExecutionReport::default()
            },
        };
        let reference = gauge::REFERENCE_NS;
        let mut out = RunReport::default();
        let mut tally = Tally::new(2);
        tally.add(0, &run(100, 3_000, 30), reference, &mut out);
        tally.add(1, &run(200, 8_000, 50), reference, &mut out);
        tally.add(0, &run(100, 2_000, 40), reference, &mut out);
        // At half the reference speed: 9,000 ns scale to 4,500.
        tally.add(1, &run(200, 9_000, 20), 2.0 * reference, &mut out);
        tally.add(1, &run(200, 7_000, 20), reference, &mut out);
        assert_eq!(out.failed, 0);
        tally.report(&mut out);
        let value = |name| out.value(name).unwrap();
        // Medians: election 0 at 2,500 ns (set-up 35 ns), election 1 at
        // 7,000 ns (set-up 20 ns).
        assert_eq!(value("latency_p50_us"), 4.75);
        assert_eq!(value("setup_s"), 27.5e-9);
        let throughput = (100e9 / 2_500.0 + 200e9 / 7_000.0) / 2.0;
        assert!((value("throughput_per_s") - throughput).abs() < 1e-6 * throughput);
        assert_eq!((value("elections"), value("runs")), (2.0, 5.0));

        let mut tally = Tally::new(1);
        tally.add(0, &run(100, 3_000, 30), reference, &mut out);
        tally.add(0, &run(101, 3_000, 30), reference, &mut out);
        assert_eq!(out.failed, 1, "a repeat must execute the same events");
    }

    #[test]
    fn partitioned_counters_see_every_step() {
        let counters = Arc::new(StepCounters::default());
        let untraced = partitioned_election(3, None).unwrap();
        let traced = partitioned_election(3, Some(&counters)).unwrap();
        let counts = Counts::of(&untraced.report);
        assert_eq!(counts, Counts::of(&traced.report));
        assert_eq!(counters.steps(), counts.steps);
        assert_eq!(untraced.report.winners().len(), 1);
    }

    #[test]
    fn seed_zero_replays_the_recorded_baseline() {
        // BENCH_baseline.json records 83,672 events for the n = 64
        // elections on seeds 0, 1 and 2, and 891,962 for the n = 256 ones;
        // seed 0 alone runs 299,244 of those.
        let events: u64 = (0..3)
            .map(|index| {
                let seed = gen::election_seed(0, index);
                sequential_election(64, seed, false)
                    .unwrap()
                    .report
                    .events_executed
            })
            .sum();
        assert_eq!(events, 83_672);
        let first = sequential_election(256, gen::election_seed(0, 0), false).unwrap();
        assert_eq!(first.report.events_executed, 299_244);
    }
}
