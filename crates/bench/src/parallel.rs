//! The partitioned-simulator throughput benchmark: one giant election,
//! partitioned across worker threads.
//!
//! Measures k-of-n leader elections driven by the canonical super-round
//! schedule of [`fle_sim::ParallelSimulator`] (crash-free
//! [`fle_sim::RoundCrashPlan`]), in events per second, at several partition
//! counts. Because canonical-mode reports are *identical for every partition
//! count* (the differential tests pin this), the ratios are pure cost
//! measurements of the same execution — scaling efficiency is
//! `events_per_sec(p) / (p × events_per_sec(1))`.
//!
//! The results are the `parallel` section of `BENCH_baseline.json`
//! ([`parallel_section`]); recording it keeps the sequential `points`
//! byte for byte, so the historical engine trajectory is never disturbed by
//! re-running the parallel sweep on a different machine.
//!
//! [`parallel_smoke_check`] is the CI gate: a small run at p = 2 and 3, and
//! the same schedule on the sequential engine, must produce *exactly* the
//! outcomes, intervals, per-processor metrics and event count of p = 1, and
//! so must p = 2 and 3 and
//! the sequential engine under a crash plan (hard failure), while the
//! measured efficiency is only reported (single-core CI runners cannot
//! meaningfully gate on speedup).

use crate::baseline::REPETITIONS;
use crate::json::Section;
use fle_analysis::Table;
use fle_core::LeaderElection;
use fle_model::{PartitionMap, ProcId};
use fle_sim::{
    ExecutionReport, ParallelSimulator, RoundCrashPlan, SimConfig, Simulator, SuperRoundAdversary,
};
use std::time::Instant;

/// Throughput at one partition count.
#[derive(Debug, Clone)]
pub struct PartitionSample {
    /// Partition count (== worker threads used, up to the core count).
    pub partitions: usize,
    /// Events per second.
    pub events_per_sec: f64,
}

/// The parallel benchmark at one system size.
#[derive(Debug, Clone)]
pub struct ParallelPoint {
    /// System size (replica count).
    pub n: usize,
    /// Number of contenders (processors `0..k` participate).
    pub k: usize,
    /// Seeds measured per partition count.
    pub trials: u64,
    /// Total events across all trials (identical at every partition count).
    pub events: u64,
    /// One sample per measured partition count, ascending.
    pub samples: Vec<PartitionSample>,
}

impl ParallelPoint {
    /// Throughput at p = 1, the scaling reference.
    pub fn base_events_per_sec(&self) -> f64 {
        self.samples
            .iter()
            .find(|s| s.partitions == 1)
            .map_or(f64::NAN, |s| s.events_per_sec)
    }

    /// `events_per_sec(p) / (p × events_per_sec(1))` for one sample.
    pub fn efficiency(&self, sample: &PartitionSample) -> f64 {
        sample.events_per_sec / (sample.partitions as f64 * self.base_events_per_sec())
    }

    /// `events_per_sec(p) / events_per_sec(1)` for one sample.
    pub fn speedup(&self, sample: &PartitionSample) -> f64 {
        sample.events_per_sec / self.base_events_per_sec()
    }
}

/// Run `trials` seeded canonical-mode elections of `k` contenders among `n`
/// processors over `partitions` partitions; returns `(seconds, events)`.
pub fn run_parallel_elections(n: usize, k: usize, partitions: usize, trials: u64) -> (f64, u64) {
    let plan = RoundCrashPlan::none();
    let mut events = 0u64;
    let start = Instant::now();
    for seed in 0..trials {
        let config = SimConfig::new(n)
            .with_seed(seed)
            .with_partitions(partitions);
        let mut sim = ParallelSimulator::new(config);
        for i in 0..k {
            sim.add_participant(ProcId(i), Box::new(LeaderElection::new(ProcId(i))));
        }
        let report = sim.run_canonical(&plan).expect("election terminates");
        assert_eq!(report.winners().len(), 1, "one leader per election");
        events += report.events_executed;
    }
    (start.elapsed().as_secs_f64(), events)
}

/// The partition counts to measure: `{1, 2, num_cpus}`, deduplicated and
/// ascending. On a single-core machine this is `{1, 2}` — recorded honestly;
/// p = 2 then measures pure partitioning overhead, not speedup.
pub fn partition_counts() -> Vec<usize> {
    let cpus = std::thread::available_parallelism()
        .map(|w| w.get())
        .unwrap_or(1);
    let mut counts = vec![1, 2, cpus];
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// Measure one system size at every partition count of
/// [`partition_counts`], each the fastest of [`REPETITIONS`] runs of its
/// trials.
pub fn measure_parallel_point(n: usize, k: usize, trials: u64) -> ParallelPoint {
    let mut samples = Vec::new();
    let mut events = 0u64;
    for partitions in partition_counts() {
        let (secs, total) = (0..REPETITIONS)
            .map(|_| run_parallel_elections(n, k, partitions, trials))
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .expect("at least one repetition");
        if events == 0 {
            events = total;
        } else {
            assert_eq!(
                events, total,
                "canonical runs must be partition-count independent"
            );
        }
        samples.push(PartitionSample {
            partitions,
            events_per_sec: total as f64 / secs,
        });
    }
    ParallelPoint {
        n,
        k,
        trials,
        events,
        samples,
    }
}

/// The standard parallel sweep: one giant election per size class. The
/// contender counts keep each measurement in the seconds range while the
/// replica count (and with it the per-call quorum traffic) grows to the
/// hundreds of thousands.
pub fn measure_parallel_default() -> Vec<ParallelPoint> {
    vec![
        measure_parallel_point(4096, 64, 2),
        measure_parallel_point(65536, 48, 1),
        measure_parallel_point(262_144, 24, 1),
    ]
}

/// The `parallel` section of `BENCH_baseline.json`: one row per
/// (n, p).
pub fn parallel_section(points: &[ParallelPoint]) -> Section {
    let mut table = Table::new([
        "n",
        "k",
        "trials",
        "events",
        "p",
        "events_per_sec",
        "speedup",
        "efficiency",
    ]);
    for point in points {
        for sample in &point.samples {
            table.add_row([
                point.n.to_string(),
                point.k.to_string(),
                point.trials.to_string(),
                point.events.to_string(),
                sample.partitions.to_string(),
                format!("{:.1}", sample.events_per_sec),
                format!("{:.2}", point.speedup(sample)),
                format!("{:.2}", point.efficiency(sample)),
            ]);
        }
    }
    Section::new(
        format!(
            "k-of-n leader election, canonical super-round schedule, crash-free, partitioned \
             engine; wall clock over `trials` seeded canonical runs, the fastest of \
             {REPETITIONS} repetitions; reports are identical at every partition count \
             (differential-tested), so ratios are pure cost; efficiency = \
             events_per_sec(p) / (p * events_per_sec(1)); measured partition counts are \
             {{1, 2, num_cpus}} of the recording machine ({} cores)",
            std::thread::available_parallelism().map_or(1, |w| w.get())
        ),
        table,
    )
}

/// One canonical election's time and the process's peak resident set.
#[derive(Debug, Clone, Copy)]
pub struct MemoryProbe {
    /// System size (replica count).
    pub n: usize,
    /// Number of contenders (processors `0..k` participate).
    pub k: usize,
    /// Events the election executed.
    pub events: u64,
    /// Wall-clock seconds of the election, setup included.
    pub seconds: f64,
    /// The process's peak resident set afterwards (`VmHWM`), in KiB.
    pub vm_hwm_kib: u64,
}

impl MemoryProbe {
    /// Peak resident KiB per processor of the system.
    pub fn kib_per_processor(&self) -> f64 {
        self.vm_hwm_kib as f64 / self.n as f64
    }
}

/// `bench_baseline --memory N K`: one canonical p = 1 election (seed 0,
/// crash-free) of `k` contenders among `n` processors, then the process's
/// peak resident set. Run it in a fresh process, so the peak is this
/// election's.
///
/// # Errors
/// An invalid `k`, a failed run, or no `VmHWM` to read (not Linux).
pub fn memory_probe(n: usize, k: usize) -> Result<MemoryProbe, String> {
    if k == 0 || k > n {
        return Err(format!("need 0 < k <= n, got n={n} k={k}"));
    }
    let (seconds, events) = run_parallel_elections(n, k, 1, 1);
    Ok(MemoryProbe {
        n,
        k,
        events,
        seconds,
        vm_hwm_kib: vm_hwm_kib()?,
    })
}

/// The most peak resident KiB per processor that `--memory-smoke` allows.
pub const MEMORY_SMOKE_MAX_KIB_PER_PROCESSOR: f64 = 10.0;

/// `bench_baseline --memory-smoke`, the CI memory gate: one
/// [`memory_probe`] at n = 65,536, k = 24, which fails above
/// [`MEMORY_SMOKE_MAX_KIB_PER_PROCESSOR`] of `VmHWM` per processor. Run it
/// in a fresh process, so the peak is this election's.
///
/// # Errors
/// A [`memory_probe`] error, or the peak over the bound.
pub fn memory_smoke_check() -> Result<MemoryProbe, String> {
    let probe = memory_probe(65_536, 24)?;
    let per_processor = probe.kib_per_processor();
    if per_processor > MEMORY_SMOKE_MAX_KIB_PER_PROCESSOR {
        return Err(format!(
            "peak resident set {:.1} KiB per processor at n={} k={} is above the \
             {MEMORY_SMOKE_MAX_KIB_PER_PROCESSOR} KiB bound (VmHWM {} KiB)",
            per_processor, probe.n, probe.k, probe.vm_hwm_kib
        ));
    }
    Ok(probe)
}

/// The `VmHWM` line of `/proc/self/status`, in KiB.
fn vm_hwm_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|error| format!("cannot read /proc/self/status: {error}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The CI parallel-smoke gate.
///
/// Runs one n = 4096 election on the partitioned engine at p = 1, 2 and 3,
/// and once on the sequential engine under the [`SuperRoundAdversary`] (the
/// release-mode, n = 4096 twin of `partition_differential.rs`); then the
/// same election under `smoke_crash_plan` at p = 1, 2 and 3 and on the
/// sequential engine, so that the barrier routes three ways and around
/// crashed recipients. It **fails** if
/// a run's report differs from its p = 1 run in any field that the
/// canonical schedule promises to be independent of the partition count and
/// of the engine: outcomes, crash list, event count, total messages, max
/// communicate calls, every processor's metrics and the invocation/return
/// intervals; or if a planned crash did not happen. The crash-free
/// p = 2 speedup and efficiency are returned for logging but never gate —
/// CI runners are routinely single-core.
///
/// # Errors
/// A description of the first mismatching field.
pub fn parallel_smoke_check() -> Result<(f64, f64), String> {
    let (n, k, seed) = (4096usize, 32usize, 7u64);
    let config = |partitions| {
        SimConfig::new(n)
            .with_seed(seed)
            .with_partitions(partitions)
    };
    let elect = |proc| Box::new(LeaderElection::new(proc));
    let run = |partitions, plan: &RoundCrashPlan| {
        let mut sim = ParallelSimulator::new(config(partitions));
        for i in 0..k {
            sim.add_participant(ProcId(i), elect(ProcId(i)));
        }
        let start = Instant::now();
        let report = sim
            .run_canonical(plan)
            .map_err(|error| format!("p={partitions} run failed: {error}"))?;
        let rate = report.events_executed as f64 / start.elapsed().as_secs_f64();
        Ok::<_, String>((report, rate))
    };
    let sequential = |plan: &RoundCrashPlan| {
        let mut sim = Simulator::new(config(1));
        for i in 0..k {
            sim.add_participant(ProcId(i), elect(ProcId(i)));
        }
        sim.run(&mut SuperRoundAdversary::new(plan))
            .map_err(|error| format!("sequential run failed: {error}"))
    };
    let none = RoundCrashPlan::none();
    let (reference, base_rate) = run(1, &none)?;
    let (two, two_rate) = run(2, &none)?;
    same_outcome(&reference, &two, "p=2")?;
    same_outcome(&reference, &run(3, &none)?.0, "p=3")?;
    same_outcome(&reference, &sequential(&none)?, "the sequential engine")?;

    let plan = smoke_crash_plan(n, k);
    let (crashed, _) = run(1, &plan)?;
    if crashed.crashed.len() != plan.entries().len() {
        return Err(format!(
            "p=1 under the crash plan crashed {} of {} planned processors",
            crashed.crashed.len(),
            plan.entries().len()
        ));
    }
    same_outcome(&crashed, &run(2, &plan)?.0, "p=2 under the crash plan")?;
    same_outcome(&crashed, &run(3, &plan)?.0, "p=3 under the crash plan")?;
    let label = "the sequential engine under the crash plan";
    same_outcome(&crashed, &sequential(&plan)?, label)?;
    Ok((two_rate / base_rate, two_rate / (2.0 * base_rate)))
}

/// The crash plan of [`parallel_smoke_check`] for `k` contenders among `n`
/// processors: every fourth contender from processor 1, and every
/// sixteenth replica from processor `k`, plus the processors on either
/// side of each partition boundary at p = 2 and p = 3, crashed over rounds
/// 0 to 7.
fn smoke_crash_plan(n: usize, k: usize) -> RoundCrashPlan {
    let mut victims: Vec<usize> = (1..k).step_by(4).chain((k..n).step_by(16)).collect();
    for partitions in [2, 3] {
        let map = PartitionMap::new(n, partitions);
        for part in 1..partitions {
            let start = map.range_of(part).start;
            victims.extend([start - 1, start]);
        }
    }
    victims.sort_unstable();
    victims.dedup();
    let entries = victims
        .into_iter()
        .enumerate()
        .map(|(i, victim)| ((i % 8) as u64, ProcId(victim)))
        .collect();
    RoundCrashPlan::new(entries)
}

/// Whether `other` (named `label`) matches the p = 1 `reference` in every
/// field the smoke gate checks.
fn same_outcome(
    reference: &ExecutionReport,
    other: &ExecutionReport,
    label: &str,
) -> Result<(), String> {
    if reference.outcomes != other.outcomes {
        return Err(format!("{label}: outcomes differ from p=1"));
    }
    if reference.crashed != other.crashed {
        return Err(format!("{label}: crash list differs from p=1"));
    }
    if reference.events_executed != other.events_executed {
        return Err(format!(
            "{label} executed {} events, p=1 executed {}",
            other.events_executed, reference.events_executed
        ));
    }
    if reference.metrics.total_messages() != other.metrics.total_messages() {
        return Err(format!("{label}: message totals differ from p=1"));
    }
    if reference.metrics.max_communicate_calls() != other.metrics.max_communicate_calls() {
        return Err(format!("{label}: communicate-call maxima differ from p=1"));
    }
    if reference.metrics != other.metrics {
        return Err(format!("{label}: per-processor metrics differ from p=1"));
    }
    if reference.intervals != other.intervals {
        return Err(format!("{label}: intervals differ from p=1"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_measurements_agree_across_partition_counts() {
        let point = measure_parallel_point(64, 16, 2);
        assert!(point.events > 0);
        assert!(point.samples.len() >= 2);
        assert_eq!(point.samples[0].partitions, 1);
        for sample in &point.samples {
            assert!(sample.events_per_sec > 0.0);
        }
        assert!(point.base_events_per_sec() > 0.0);
    }

    #[test]
    fn the_parallel_section_has_one_row_per_size_and_partition_count() {
        let point = ParallelPoint {
            n: 4096,
            k: 64,
            trials: 1,
            events: 1000,
            samples: vec![
                PartitionSample {
                    partitions: 1,
                    events_per_sec: 10.0,
                },
                PartitionSample {
                    partitions: 2,
                    events_per_sec: 15.0,
                },
            ],
        };
        let section = parallel_section(&[point]);
        assert_eq!(section.table.len(), 2);
        assert_eq!(section.table.rows()[1][4], "2");
        assert_eq!(section.number("p", "2", "efficiency"), Ok(0.75));
        assert_eq!(section.number("p", "2", "speedup"), Ok(1.5));
    }

    #[test]
    fn the_memory_probe_reads_a_peak_for_one_election() {
        assert!(memory_probe(64, 0).is_err());
        assert!(memory_probe(64, 65).is_err());
        let probe = memory_probe(64, 8).expect("Linux exposes VmHWM");
        assert_eq!(probe.events, run_parallel_elections(64, 8, 1, 1).1);
        assert!(probe.vm_hwm_kib > 0 && probe.kib_per_processor() > 0.0);
    }

    #[test]
    fn smoke_check_passes_on_identical_partitioned_runs() {
        // The real smoke runs n = 4096; the unit test only checks the
        // comparison logic wiring, so keep it cheap by calling the pieces.
        let (secs1, events1) = run_parallel_elections(128, 8, 1, 1);
        let (secs2, events2) = run_parallel_elections(128, 8, 2, 1);
        assert!(secs1 > 0.0 && secs2 > 0.0);
        assert_eq!(events1, events2);
    }
}
