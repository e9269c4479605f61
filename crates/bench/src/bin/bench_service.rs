//! Record the service-throughput baseline (`BENCH_service.json`) or run the
//! CI service gates.
//!
//! * `cargo run --release -p fle-bench --bin bench_service` — sweep the
//!   async backend at shard counts {1, 4, num_cpus} (2000 four-processor
//!   elections each, closed loop) plus an overload sweep at multiples of the
//!   sustainable rate, the density sweep at n ∈ {4, 16, 64}, the executor
//!   density storm and the per-shard metrics, and write them as the
//!   sections of `BENCH_service.json`.
//! * `-- --smoke` — run 1000 concurrent instances on the async backend with
//!   correctness assertions (zero lost or duplicate outcomes, exactly one
//!   winner each, balanced accounting) and gate on a >3x throughput
//!   regression against the recording.
//! * `-- --overload-smoke` — offer 2x the sustainable rate (the goodput of
//!   an open-loop pass at 4x a closed-loop rate) under the shed policy and
//!   gate on the overload properties: nonzero shed, bounded queue
//!   depth, intact admitted work, balanced accounting, goodput holding up.
//! * `-- --metrics-smoke` — run the same storm with per-shard metrics on and
//!   off; assert the snapshot invariants (per-shard sums equal the aggregate
//!   stats, every instance attributed) and gate on recorder overhead.
//! * `-- --async-smoke` — the density gate for the task executor: stage
//!   thousands of executor instances before any runs (peak in-flight must
//!   clear the floor, zero lost/duplicate outcomes).

use fle_bench::service_load;

fn main() {
    let has = |flag: &str| std::env::args().any(|arg| arg == flag);
    let (gate, result) = if has("--smoke") {
        let result = service_load::smoke_check().map(|(measured, recorded)| {
            format!(
                "{} instances across {} shards, measured {measured:.0} instances/s (recorded \
                 {recorded:.0}), all outcomes verified",
                service_load::SMOKE_INSTANCES,
                service_load::SMOKE_SHARDS,
            )
        });
        ("service-smoke", result)
    } else if has("--overload-smoke") {
        let result = service_load::overload_smoke_check().map(|(sustainable, result)| {
            format!(
                "goodput {:.0} instances/s at 2x the sustainable {sustainable:.0}/s, refused {} \
                 of {}, queues bounded, admitted work intact",
                result.goodput_per_sec, result.refused, result.offered,
            )
        });
        ("overload-smoke", result)
    } else if has("--async-smoke") {
        let result = service_load::async_smoke_check().map(|storm| {
            format!(
                "peak {} concurrent instances (n={}) over {} task workers ({:.0} instances/s \
                 executor-direct), all outcomes verified",
                storm.peak_in_flight, storm.n, storm.task_workers, storm.instances_per_sec,
            )
        });
        ("async-smoke", result)
    } else if has("--metrics-smoke") {
        let result = service_load::metrics_smoke_check().map(|(with_metrics, without)| {
            format!(
                "{with_metrics:.0} instances/s with per-shard recorders vs {without:.0} without \
                 (floor {:.0}%), snapshot agreed with the aggregate stats",
                service_load::METRICS_MIN_THROUGHPUT_FRACTION * 100.0
            )
        });
        ("metrics-smoke", result)
    } else {
        println!("recording service throughput into BENCH_service.json ...");
        for (name, section) in &service_load::record_default().sections {
            println!("\n{name}\n{}", section.table.render());
        }
        return;
    };
    match result {
        Ok(summary) => println!("{gate} OK: {summary}"),
        Err(message) => {
            eprintln!("{gate} FAILED: {message}");
            std::process::exit(1);
        }
    }
}
