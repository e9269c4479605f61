//! Wall-clock cost of one sifting phase (plain vs heterogeneous PoisonPill),
//! the simulator-level counterpart of experiments E1/E2/E8.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn sifting(c: &mut Criterion) {
    let mut group = c.benchmark_group("sifting_phase");
    group.sample_size(10);
    for &n in &[16usize, 32, 64, 256] {
        group.bench_with_input(BenchmarkId::new("poison_pill", n), &n, |b, &n| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(fle_bench::experiments::bench_one_sift(n, false, seed))
            });
        });
        // Heterogeneous collect replies carry O(n)-sized participant lists;
        // n = 256 would dominate the whole bench run.
        if n > 64 {
            continue;
        }
        group.bench_with_input(BenchmarkId::new("heterogeneous", n), &n, |b, &n| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(fle_bench::experiments::bench_one_sift(n, true, seed))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, sifting);
criterion_main!(benches);
