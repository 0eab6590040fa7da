//! Association microbenchmarks: bundling, greedy matching, and track
//! building — the Section 4 substrate, through the prepared-footprint
//! API the assembly engine calls. Each iteration prepares its boxes'
//! footprints into a reused buffer, as the engine does per frame.
//!
//! Set `FIXY_BENCH_SMOKE=1` to run the smallest size of each group with 3
//! samples — the CI smoke mode that keeps the bench compiling *and*
//! executing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use loa_assoc::{
    bundle_prepared_into, greedy_match_into, BundleScratch, FrameBundles, MatchScratch,
    PreparedBox, ScoreMatrix, TrackBuilder,
};
use loa_geom::Box3;
use std::hint::black_box;

fn smoke() -> bool {
    std::env::var_os("FIXY_BENCH_SMOKE").is_some_and(|v| v != "0")
}

/// The sizes to run: all of them, or only the smallest in smoke mode.
fn sizes(all: &[usize]) -> &[usize] {
    if smoke() {
        &all[..1]
    } else {
        all
    }
}

fn boxes(n: usize, jitter: f64) -> Vec<Box3> {
    (0..n)
        .map(|i| {
            let u = ((i.wrapping_mul(40503)) % 997) as f64 / 997.0;
            Box3::on_ground(
                5.0 + (i as f64 * 7.3) % 70.0 + u * jitter,
                -20.0 + (i as f64 * 3.7) % 40.0,
                0.0,
                4.5,
                1.9,
                1.6,
                u * 3.0,
            )
        })
        .collect()
}

fn bench_bundling(c: &mut Criterion) {
    let mut group = c.benchmark_group("bundling");
    group.sample_size(if smoke() { 3 } else { 20 });
    for &n in sizes(&[10, 40, 80]) {
        let human = boxes(n, 0.0);
        let model = boxes(n, 0.3);
        let (mut prepared, mut scratch, mut out) =
            (Vec::new(), BundleScratch::default(), FrameBundles::default());
        group.bench_with_input(BenchmarkId::new("bundle_prepared", n), &n, |b, _| {
            b.iter(|| {
                prepared.clear();
                prepared.extend(black_box(&human).iter().map(PreparedBox::new));
                prepared.extend(black_box(&model).iter().map(PreparedBox::new));
                bundle_prepared_into(&prepared, &[n, 2 * n], &mut scratch, &mut out);
                black_box(out.len())
            })
        });
    }
    group.finish();
}

fn bench_matching(c: &mut Criterion) {
    let mut group = c.benchmark_group("matching");
    group.sample_size(if smoke() { 3 } else { 20 });
    for &n in sizes(&[10, 40, 80]) {
        let a = boxes(n, 0.0);
        let bxs = boxes(n, 0.4);
        let mut scores = ScoreMatrix::new();
        scores.reset(n, n);
        for (i, x) in a.iter().enumerate() {
            for (j, y) in bxs.iter().enumerate() {
                scores.push(i, j, loa_geom::iou_bev(x, y));
            }
        }
        let (mut scratch, mut out) = (MatchScratch::default(), Vec::new());
        group.bench_with_input(BenchmarkId::new("greedy_into", n), &scores, |b, s| {
            b.iter(|| {
                greedy_match_into(black_box(s), 0.1, &mut scratch, &mut out);
                black_box(out.len())
            })
        });
    }
    group.finish();
}

fn bench_tracking(c: &mut Criterion) {
    let mut group = c.benchmark_group("tracking");
    group.sample_size(if smoke() { 3 } else { 20 });
    for &frames in sizes(&[50, 150]) {
        let per_frame: Vec<Vec<Box3>> = (0..frames)
            .map(|f| {
                (0..30)
                    .map(|o| {
                        Box3::on_ground(
                            5.0 + o as f64 * 8.0 + f as f64 * 0.8,
                            -15.0 + (o % 5) as f64 * 6.0,
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
        let (mut builder, mut prepared) = (TrackBuilder::default(), Vec::new());
        let items: Vec<u32> = (0..per_frame[0].len() as u32).collect();
        group.bench_with_input(BenchmarkId::new("track_builder", frames), &per_frame, |b, pf| {
            b.iter(|| {
                builder.begin();
                for boxes in black_box(pf) {
                    prepared.clear();
                    prepared.extend(boxes.iter().map(PreparedBox::new));
                    builder.step_prepared(&prepared, &items);
                }
                black_box(builder.n_paths())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_bundling, bench_matching, bench_tracking);
criterion_main!(benches);
