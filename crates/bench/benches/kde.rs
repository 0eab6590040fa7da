//! KDE microbenchmarks: fitting (which builds the scoring grid) and
//! evaluation, exact vs grid — the distribution-learning substrate behind
//! every learned feature.
//!
//! Set `FIXY_BENCH_SMOKE=1` to run the smallest training set of each group
//! with 3 samples — the CI smoke mode that keeps the bench compiling *and*
//! executing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use loa_stats::{Density1d, Kde1d};
use std::hint::black_box;

fn smoke() -> bool {
    std::env::var_os("FIXY_BENCH_SMOKE").is_some_and(|v| v != "0")
}

/// Training-set sizes: all of them, or only the smallest in smoke mode.
fn sizes() -> &'static [usize] {
    if smoke() {
        &[100]
    } else {
        &[100, 1_000, 10_000]
    }
}

fn samples(n: usize) -> Vec<f64> {
    // Deterministic pseudo-random mixture: two modes, like real volume
    // distributions (cars + trucks).
    (0..n)
        .map(|i| {
            let u = ((i.wrapping_mul(2654435761)) % 1000) as f64 / 1000.0;
            if i % 4 == 0 {
                60.0 + u * 25.0
            } else {
                12.0 + u * 6.0
            }
        })
        .collect()
}

fn bench_fit(c: &mut Criterion) {
    let mut group = c.benchmark_group("kde_fit");
    group.sample_size(if smoke() { 3 } else { 20 });
    for &n in sizes() {
        let xs = samples(n);
        group.bench_with_input(BenchmarkId::new("exact", n), &xs, |b, xs| {
            b.iter(|| black_box(Kde1d::fit(black_box(xs)).unwrap().grid().bins()))
        });
    }
    group.finish();
}

fn bench_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("kde_eval");
    group.sample_size(if smoke() { 3 } else { 20 });
    for &n in sizes() {
        let xs = samples(n);
        let kde = Kde1d::fit(&xs).unwrap();
        let binned = kde.grid();
        group.bench_with_input(BenchmarkId::new("exact", n), &kde, |b, kde| {
            b.iter(|| {
                let mut acc = 0.0;
                for q in 0..100 {
                    acc += kde.relative_likelihood(black_box(q as f64));
                }
                black_box(acc)
            })
        });
        group.bench_with_input(BenchmarkId::new("binned", n), binned, |b, binned| {
            b.iter(|| {
                let mut acc = 0.0;
                for q in 0..100 {
                    acc += binned.relative_likelihood(black_box(q as f64));
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fit, bench_eval);
criterion_main!(benches);
