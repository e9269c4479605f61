//! A storm of concurrent election instances through the sharded service.
//!
//! Thousands of independent leader elections are submitted to an
//! [`ElectionService`] running on the async backend: every instance's
//! registers live (namespaced) in one shared, sharded register bank, and
//! finished instances are retired epoch by epoch so the bank stays small no
//! matter how many instances have been served. Each shard worker steps its
//! instances' participants itself, round-robin, so the storm runs on the
//! service's shard threads alone, without a single per-participant thread.
//!
//! Run with `cargo run --release --example service_storm`.

use fast_leader_election::prelude::*;
use std::time::Instant;

fn main() {
    let backend = BackendKind::Async;
    // Cap the shard count so every shard completes several epochs over the
    // storm (the retirement assertions below rely on the first-submitted
    // instance's shard closing at least one epoch after it finishes).
    let shards = std::thread::available_parallelism()
        .map_or(4, std::num::NonZeroUsize::get)
        .min(8);
    let instances = 2000u64;
    let n = 4;

    let service = ElectionService::new(
        ServiceConfig::new(shards, backend)
            .with_epoch_size(64)
            .with_retained_epochs(1),
    );

    println!(
        "submitting {instances} elections of {n} processors across {shards} shards \
         on the {} backend ...",
        backend.label()
    );
    let start = Instant::now();
    let tickets: Vec<Ticket> = (0..instances)
        .map(|key| {
            service
                .submit(InstanceSpec::election(key, n))
                .expect("fresh keys are always accepted")
        })
        .collect();

    let mut slowest_micros = 0u64;
    for ticket in tickets {
        let result = ticket.wait().expect("every instance completes");
        assert!(
            result.winner().is_some(),
            "instance {} must elect exactly one winner",
            result.key
        );
        slowest_micros = slowest_micros.max(result.latency.as_micros() as u64);
    }
    let elapsed = start.elapsed();

    // Finished instances are queryable until their epoch retires...
    match service.status(instances - 1) {
        InstanceStatus::Done { winner } => {
            println!("last instance won by {winner:?} (still within the retention window)");
        }
        other => println!("last instance already retired: {other:?}"),
    }
    // ...while long-retired instances have left both the status table and
    // the register bank.
    assert_eq!(service.status(0), InstanceStatus::Unknown);

    let live = service.registers().live_namespaces();
    let (stats, metrics) = service.shutdown_with_metrics();
    println!(
        "served {} instances in {:.2?} ({:.0} instances/s), worst latency {slowest_micros} us",
        stats.completed,
        elapsed,
        stats.completed as f64 / elapsed.as_secs_f64(),
    );
    println!(
        "epoch retirement kept the register bank at {live} live namespaces \
         ({} retired across {} closed epochs)",
        stats.retired, stats.epochs_closed,
    );

    // The always-on per-shard recorders say *where* the time went: which
    // shard ran slowest, whose queue got deepest, and whether instances
    // spent their latency waiting for a worker or actually electing.
    let metrics = metrics.expect("metrics are on by default");
    stats
        .check_metrics(&metrics)
        .expect("per-shard metrics must agree with the aggregate stats");
    println!("\nper-shard attribution ({} backend):", backend.label());
    print!("{}", metrics.attribution_report());
}
