//! Record the service-throughput baseline (`BENCH_service.json`) or run the
//! CI service gates.
//!
//! * `cargo run --release -p fle-bench --bin bench_service` — sweep the
//!   async backend at shard counts {1, 4, num_cpus} (2000 four-processor
//!   elections each, closed loop) plus an overload sweep at multiples of the
//!   sustainable rate, the density sweep at n ∈ {4, 16, 64} and the
//!   executor density storm, and write `BENCH_service.json`.
//! * `-- --smoke` — run 1000 concurrent instances on the async backend with
//!   correctness assertions (zero lost or duplicate outcomes, exactly one
//!   winner each, balanced accounting) and gate on a >3x throughput
//!   regression against the recording.
//! * `-- --overload-smoke` — offer 2x the sustainable rate under the shed
//!   policy and gate on the overload properties: nonzero shed, bounded queue
//!   depth, intact admitted work, balanced accounting, goodput holding up.
//! * `-- --metrics-smoke` — run the same storm with per-shard metrics on and
//!   off; assert the snapshot invariants (per-shard sums equal the aggregate
//!   stats, every instance attributed) and gate on recorder overhead.
//! * `-- --async-smoke` — the density gate for the task executor: stage
//!   thousands of executor instances before any runs (peak in-flight must
//!   clear the floor, zero lost/duplicate outcomes).

use fle_bench::service_load;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|arg| arg == "--smoke") {
        match service_load::smoke_check() {
            Ok((measured, recorded)) => {
                println!(
                    "service-smoke OK: {} instances across {} shards, measured {measured:.0} \
                     instances/s (recorded {recorded:.0}), all outcomes verified",
                    service_load::SMOKE_INSTANCES,
                    service_load::SMOKE_SHARDS,
                );
            }
            Err(message) => {
                eprintln!("service-smoke FAILED: {message}");
                std::process::exit(1);
            }
        }
        return;
    }
    if args.iter().any(|arg| arg == "--overload-smoke") {
        match service_load::overload_smoke_check() {
            Ok((goodput, shed_fraction)) => {
                println!(
                    "overload-smoke OK: goodput {goodput:.0} instances/s at 2x offered load, \
                     shed fraction {shed_fraction:.2}, queues bounded, admitted work intact"
                );
            }
            Err(message) => {
                eprintln!("overload-smoke FAILED: {message}");
                std::process::exit(1);
            }
        }
        return;
    }

    if args.iter().any(|arg| arg == "--async-smoke") {
        match service_load::async_smoke_check() {
            Ok(storm) => {
                println!(
                    "async-smoke OK: peak {} concurrent instances (n={}) over {} task workers \
                     ({:.0} instances/s executor-direct), all outcomes verified",
                    storm.peak_in_flight, storm.n, storm.task_workers, storm.instances_per_sec,
                );
            }
            Err(message) => {
                eprintln!("async-smoke FAILED: {message}");
                std::process::exit(1);
            }
        }
        return;
    }

    if args.iter().any(|arg| arg == "--metrics-smoke") {
        match service_load::metrics_smoke_check() {
            Ok((with_metrics, without)) => {
                println!(
                    "metrics-smoke OK: {with_metrics:.0} instances/s with per-shard recorders \
                     vs {without:.0} without (floor {:.0}%), snapshot agreed with the \
                     aggregate stats",
                    service_load::METRICS_MIN_THROUGHPUT_FRACTION * 100.0
                );
            }
            Err(message) => {
                eprintln!("metrics-smoke FAILED: {message}");
                std::process::exit(1);
            }
        }
        return;
    }

    println!("recording service throughput into BENCH_service.json ...");
    let recording = service_load::record_default();
    println!(
        "{:>10} {:>7} {:>5} {:>10} {:>16} {:>12} {:>12} {:>12}",
        "backend", "shards", "n", "instances", "instances/sec", "p50 us", "p95 us", "p99 us"
    );
    for p in recording.points.iter().chain(&recording.density) {
        println!(
            "{:>10} {:>7} {:>5} {:>10} {:>16.1} {:>12} {:>12} {:>12}",
            p.spec.backend.label(),
            p.spec.shards,
            p.spec.n,
            p.spec.instances,
            p.instances_per_sec,
            p.p50_micros,
            p.p95_micros,
            p.p99_micros,
        );
    }
    let storm = &recording.storm;
    println!(
        "executor storm: {} instances of n={} peaked at {} in flight over {} task workers \
         ({:.0} instances/s)",
        storm.instances, storm.n, storm.peak_in_flight, storm.task_workers, storm.instances_per_sec,
    );
}
