//! Record the simulator-throughput baseline: full leader elections at
//! n ∈ {16, 64, 256, 1024} in events/sec on the production engine, each
//! point the fastest of 5 repetitions, recorded as the `points` section of
//! `BENCH_baseline.json`; the other sections are kept byte for byte.
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
//! election at n ∈ {4096, 65536, 262144}, partition counts {1, 2, num_cpus},
//! each row the fastest of 5 repetitions) and records it as the `parallel`
//! section, keeping the sequential `points` byte for byte.
//!
//! `--parallel-smoke` runs the CI parallel gate: an n = 4096 election at
//! p = 2 and 3, and on the sequential engine under the super-round
//! schedule, must match p = 1 exactly (outcomes, intervals, every
//! processor's metrics, event count), and
//! so must p = 2 and 3 and the sequential engine under a crash plan; the
//! measured efficiency is printed but never gates.
//!
//! `--memory N K` runs one canonical p = 1 election (seed 0) of `K`
//! contenders among `N` processors and prints its run time and the
//! process's peak resident set (`VmHWM`), in total and per processor.
//! Nothing is recorded.
//!
//! `--memory-smoke` runs the CI memory gate: `--memory 65536 24`, which
//! fails above 10 KiB of `VmHWM` per processor.

use fle_bench::{baseline, json, parallel};

/// Print one memory probe's line.
fn print_memory(probe: &parallel::MemoryProbe) {
    println!(
        "memory: n={} k={} p=1 seed=0: {} events in {:.1} s; VmHWM {} KiB \
         ({:.2} GiB), {:.1} KiB per processor",
        probe.n,
        probe.k,
        probe.events,
        probe.seconds,
        probe.vm_hwm_kib,
        probe.vm_hwm_kib as f64 / (1024.0 * 1024.0),
        probe.kib_per_processor(),
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let has = |flag: &str| args.iter().any(|arg| arg == flag);
    let (mode, result) = if let Some(at) = args.iter().position(|arg| arg == "--memory") {
        let size = |offset: usize| {
            args.get(at + offset)
                .and_then(|arg| arg.parse::<usize>().ok())
        };
        let result = match (size(1), size(2)) {
            (Some(n), Some(k)) => parallel::memory_probe(n, k).map(|probe| print_memory(&probe)),
            _ => Err("usage: bench_baseline --memory N K".to_string()),
        };
        ("memory", result)
    } else if has("--memory-smoke") {
        let result = parallel::memory_smoke_check().map(|probe| {
            print_memory(&probe);
            println!(
                "memory-smoke OK: at most {} KiB per processor",
                parallel::MEMORY_SMOKE_MAX_KIB_PER_PROCESSOR
            );
        });
        ("memory-smoke", result)
    } else if has("--parallel-smoke") {
        let result = parallel::parallel_smoke_check().map(|(speedup, efficiency)| {
            println!(
                "parallel-smoke OK: p=2, p=3 and sequential reports identical to p=1, \
                 and p=2, p=3 and sequential under the crash plan identical to its p=1; \
                 speedup {speedup:.2}x, efficiency {efficiency:.2} (not gated)"
            );
        });
        ("parallel-smoke", result)
    } else if has("--parallel") {
        println!("partitioned-engine throughput (canonical super-round schedule)\n");
        let section = parallel::parallel_section(&parallel::measure_parallel_default());
        println!("{}", section.table.render());
        let path = baseline::baseline_path();
        (
            "parallel",
            json::record_section(&path, "baseline", "parallel", section),
        )
    } else if has("--smoke") {
        let result = baseline::smoke_check().map(|(measured, recorded, ratio)| {
            println!(
                "smoke-perf OK: n=64 measured {measured:.0} events/s (recorded baseline \
                 {recorded:.0}); production/validation ratio {ratio:.2}x (floor {}x)",
                baseline::SMOKE_MIN_VALIDATION_RATIO,
            );
        });
        ("smoke-perf", result)
    } else {
        println!("election throughput baseline (production engine)\n");
        let result = baseline::record_default()
            .map(|points| println!("{}", baseline::points_section(&points).table.render()));
        ("baseline", result)
    };
    if let Err(message) = result {
        eprintln!("{mode} FAILED: {message}");
        std::process::exit(1);
    }
}
