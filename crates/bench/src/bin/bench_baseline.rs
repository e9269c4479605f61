//! Record the simulator-throughput baseline: full leader elections at
//! n ∈ {16, 64, 256, 1024} in events/sec on the production engine, written
//! to the `points` of `BENCH_baseline.json`; a recorded `parallel` section
//! is kept byte for byte.
//!
//! Run with `cargo run --release -p fle-bench --bin bench_baseline`.
//!
//! `--smoke` instead re-measures n = 64 with a single trial and exits
//! non-zero if events/s regressed more than 3x below the recorded baseline
//! *and* the same-run ratio of production to reference-mode
//! (`SimConfig::with_event_set_validation`) throughput at seed 0 confirms it
//! is a code regression rather than a slower machine (the CI smoke-perf
//! gate; generous thresholds, loud not flaky).
//!
//! `--parallel` measures the partitioned-engine sweep (one giant k-of-n
//! election at n ∈ {4096, 65536, 262144}, partition counts {1, 2, num_cpus})
//! and splices a `parallel` section into `BENCH_baseline.json`, preserving
//! the recorded sequential points byte-for-byte.
//!
//! `--parallel-smoke` runs the CI parallel gate: an n = 4096 election at
//! p = 2 must match p = 1 exactly (outcomes, metrics, event count); the
//! measured efficiency is printed but never gates.

fn main() {
    if std::env::args().any(|arg| arg == "--parallel-smoke") {
        match fle_bench::parallel::parallel_smoke_check() {
            Ok((speedup, efficiency)) => {
                println!(
                    "parallel-smoke OK: p=2 report identical to p=1; \
                     speedup {speedup:.2}x, efficiency {efficiency:.2} (not gated)"
                );
            }
            Err(message) => {
                eprintln!("parallel-smoke FAILED: {message}");
                std::process::exit(1);
            }
        }
        return;
    }
    if std::env::args().any(|arg| arg == "--parallel") {
        println!("partitioned-engine throughput (canonical super-round schedule)\n");
        let points = fle_bench::parallel::measure_parallel_default();
        println!(
            "{:>8} {:>6} {:>10} {:>4} {:>16} {:>9} {:>11}",
            "n", "k", "events", "p", "events/s", "speedup", "efficiency"
        );
        for point in &points {
            for sample in &point.samples {
                println!(
                    "{:>8} {:>6} {:>10} {:>4} {:>16.0} {:>8.2}x {:>11.2}",
                    point.n,
                    point.k,
                    point.events,
                    sample.partitions,
                    sample.events_per_sec,
                    point.speedup(sample),
                    point.efficiency(sample),
                );
            }
        }
        fle_bench::parallel::record_parallel_preserving(
            &fle_bench::baseline::baseline_path(),
            &points,
        );
        return;
    }
    if std::env::args().any(|arg| arg == "--smoke") {
        match fle_bench::baseline::smoke_check() {
            Ok((measured, recorded, ratio)) => {
                println!(
                    "smoke-perf OK: n=64 measured {measured:.0} events/s (recorded baseline \
                     {recorded:.0}); production/validation ratio {ratio:.2}x (floor {}x)",
                    fle_bench::baseline::SMOKE_MIN_VALIDATION_RATIO,
                );
            }
            Err(message) => {
                eprintln!("smoke-perf FAILED: {message}");
                std::process::exit(1);
            }
        }
        return;
    }

    println!("election throughput baseline (production engine)\n");
    let points = fle_bench::baseline::record_default();
    println!("{:>6} {:>9} {:>18}", "n", "events", "production (ev/s)");
    for p in &points {
        println!(
            "{:>6} {:>9} {:>18.0}",
            p.n, p.events, p.incremental_events_per_sec
        );
    }
}
