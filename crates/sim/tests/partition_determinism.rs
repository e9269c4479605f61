//! Determinism regression tests: a partitioned run is a pure function of
//! `(seed, n, crash plan)` — the number of worker threads driving the
//! partitions must never be observable in any report field.

use fle_core::LeaderElection;
use fle_model::ProcId;
use fle_sim::{ParallelSimulator, RoundCrashPlan, SimConfig};

fn run_canonical(
    n: usize,
    seed: u64,
    partitions: usize,
    workers: usize,
) -> fle_sim::ExecutionReport {
    let config = SimConfig::new(n)
        .with_seed(seed)
        .with_partitions(partitions)
        .with_trace();
    let mut sim = ParallelSimulator::new(config).with_workers(workers);
    for i in 0..n {
        sim.add_participant(ProcId(i), Box::new(LeaderElection::new(ProcId(i))));
    }
    let plan = RoundCrashPlan::new(vec![(0, ProcId(2)), (3, ProcId(n - 1))]);
    sim.run_canonical(&plan).expect("canonical run failed")
}

fn assert_byte_identical(a: &fle_sim::ExecutionReport, b: &fle_sim::ExecutionReport, label: &str) {
    assert_eq!(a.outcomes, b.outcomes, "{label}: outcomes");
    assert_eq!(a.intervals, b.intervals, "{label}: intervals");
    assert_eq!(a.crashed, b.crashed, "{label}: crashes");
    assert_eq!(a.events_executed, b.events_executed, "{label}: events");
    assert_eq!(a.trace.digest(), b.trace.digest(), "{label}: trace digest");
    assert_eq!(
        a.metrics.total_messages(),
        b.metrics.total_messages(),
        "{label}: messages"
    );
    assert_eq!(
        a.metrics.max_communicate_calls(),
        b.metrics.max_communicate_calls(),
        "{label}: communicate calls"
    );
}

#[test]
fn canonical_runs_are_worker_count_independent() {
    for (n, partitions) in [(32usize, 4usize), (64, 7)] {
        let reference = run_canonical(n, 11, partitions, 1);
        for workers in [2usize, 3, 5, 16] {
            let candidate = run_canonical(n, 11, partitions, workers);
            assert_byte_identical(
                &reference,
                &candidate,
                &format!("canonical n={n} p={partitions} workers={workers}"),
            );
        }
    }
}

#[test]
fn repeated_runs_are_bitwise_reproducible() {
    // Same (seed, n, partitions) twice in the same process — catches any
    // leak of global state (arena pools, statics) into results.
    let a = run_canonical(32, 5, 4, 2);
    let b = run_canonical(32, 5, 4, 2);
    assert_byte_identical(&a, &b, "repeat canonical");
}
