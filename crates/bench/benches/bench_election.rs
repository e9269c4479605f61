//! Wall-clock cost of a full leader election: the paper's O(log* k)
//! construction vs the Θ(log n) tournament baseline, plus the threaded
//! runtime. Counterpart of experiment E3.
//!
//! Also records `BENCH_baseline.json`: production-engine election
//! events/sec at n ∈ {16, 64, 256, 1024}, so perf PRs have a trajectory to
//! compare against.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn election(c: &mut Criterion) {
    let mut group = c.benchmark_group("leader_election");
    group.sample_size(10);
    for &n in &[8usize, 16, 32] {
        group.bench_with_input(BenchmarkId::new("poisonpill_sim", n), &n, |b, &n| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(fle_bench::experiments::bench_one_election(n, seed))
            });
        });
        group.bench_with_input(BenchmarkId::new("tournament_sim", n), &n, |b, &n| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(fle_bench::experiments::bench_one_tournament(n, seed))
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group("leader_election_threaded");
    group.sample_size(10);
    for &n in &[4usize, 8] {
        group.bench_with_input(BenchmarkId::new("poisonpill_threads", n), &n, |b, &n| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(fle_bench::experiments::bench_one_threaded_election(n, seed))
            });
        });
    }
    group.finish();
}

fn scheduler_baseline(_c: &mut Criterion) {
    // Single-threaded dedicated timing (not criterion-sampled), the same
    // measurement as the bench_baseline bin; writes BENCH_baseline.json.
    let points = fle_bench::baseline::record_default();
    for p in &points {
        println!(
            "baseline n={:<4} production {:>12.0} ev/s",
            p.n, p.incremental_events_per_sec,
        );
    }
}

criterion_group!(benches, election, scheduler_baseline);
criterion_main!(benches);
