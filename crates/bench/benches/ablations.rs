//! Ablation benchmarks for design choices DESIGN.md calls out:
//!
//! * bandwidth rule and kernel choice (KDE quality knobs → fit/eval cost),
//! * greedy vs Hungarian association inside the tracker.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use loa_assoc::{build_tracks, TrackerConfig};
use loa_geom::Box3;
use loa_stats::{BandwidthRule, Density1d, Kde1d, Kernel};
use std::hint::black_box;

fn samples(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i.wrapping_mul(2654435761)) % 1000) as f64 / 50.0)
        .collect()
}

fn bench_kernels_and_bandwidths(c: &mut Criterion) {
    let xs = samples(2_000);
    let mut group = c.benchmark_group("ablation_kde_knobs");
    for kernel in [Kernel::Gaussian, Kernel::Epanechnikov, Kernel::Tophat] {
        let kde = Kde1d::fit_with(&xs, kernel, BandwidthRule::Silverman).unwrap();
        group.bench_with_input(BenchmarkId::new("eval_kernel", kernel.name()), &kde, |b, kde| {
            b.iter(|| {
                let mut acc = 0.0;
                for q in 0..200 {
                    acc += kde.density(black_box(q as f64 * 0.1));
                }
                black_box(acc)
            })
        });
    }
    for (name, rule) in [
        ("silverman", BandwidthRule::Silverman),
        ("scott", BandwidthRule::Scott),
        ("fixed", BandwidthRule::Fixed(0.5)),
    ] {
        group.bench_with_input(BenchmarkId::new("fit_rule", name), &rule, |b, rule| {
            b.iter(|| {
                black_box(
                    Kde1d::fit_with(black_box(&xs), Kernel::Gaussian, *rule)
                        .unwrap()
                        .bandwidth_value(),
                )
            })
        });
    }
    group.finish();
}

fn bench_tracker_matchers(c: &mut Criterion) {
    let per_frame: Vec<Vec<Box3>> = (0..100)
        .map(|f| {
            (0..25)
                .map(|o| {
                    Box3::on_ground(
                        5.0 + o as f64 * 8.0 + f as f64 * 0.9,
                        -12.0 + (o % 4) as f64 * 6.0,
                        0.0,
                        4.5,
                        1.9,
                        1.6,
                        0.0,
                    )
                })
                .collect()
        })
        .collect();
    let mut group = c.benchmark_group("ablation_tracker");
    for (name, hungarian) in [("greedy", false), ("hungarian", true)] {
        let cfg = TrackerConfig { use_hungarian: hungarian, ..Default::default() };
        group.bench_with_input(BenchmarkId::new("matcher", name), &cfg, |b, cfg| {
            b.iter(|| black_box(build_tracks(black_box(&per_frame), cfg).len()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernels_and_bandwidths, bench_tracker_matchers);
criterion_main!(benches);
