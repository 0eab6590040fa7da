//! Geometry microbenchmarks: oriented IOU is the hot inner loop of
//! association and LIDAR simulation.
//!
//! * `iou/*` — single-pair IOU: an overlapping pair, a far pair the
//!   circumradius test rejects, and volumetric IOU.
//! * `iou/prepared_scene_pairs` — `iou_bev_prepared` over every
//!   cross-source pair of a generated scene whose footprint AABBs
//!   intersect (the pairs the bundler scores); the time covers the whole
//!   list and the pair count is printed after the group. The pairs mix
//!   overlaps, near misses and containment in the proportions real
//!   frames have, which is what decides how well the clip's branches
//!   predict.
//! * `polygon/clip_intersection` — the allocating `ConvexPolygon` clip.
//! * `lidar/*` — one simulated LIDAR scan.
//!
//! Set `FIXY_BENCH_SMOKE=1` to run on a miniature scene with 3 samples —
//! the CI smoke mode that keeps the bench compiling *and* executing.

use criterion::{criterion_group, criterion_main, Criterion};
use loa_assoc::PreparedBox;
use loa_data::{generate_scene, DatasetProfile};
use loa_geom::{iou_3d, iou_bev, iou_bev_prepared, Box3};
use std::hint::black_box;

fn smoke() -> bool {
    std::env::var_os("FIXY_BENCH_SMOKE").is_some_and(|v| v != "0")
}

fn samples() -> usize {
    if smoke() {
        3
    } else {
        20
    }
}

/// Prepared footprints of every human×model pair, within one frame,
/// whose AABBs intersect.
fn scene_pairs() -> Vec<(PreparedBox, PreparedBox)> {
    let mut cfg = DatasetProfile::InternalLike.scene_config();
    if smoke() {
        cfg.world.duration = 3.0;
        cfg.lidar.beam_count = 240;
    }
    let data = generate_scene(&cfg, "geometry-pairs", 4242);
    let mut pairs = Vec::new();
    for frame in &data.frames {
        let humans: Vec<PreparedBox> =
            frame.human_labels.iter().map(|l| PreparedBox::new(&l.bbox)).collect();
        for d in &frame.detections {
            let pd = PreparedBox::new(&d.bbox);
            for ph in &humans {
                if ph.aabb.intersects(&pd.aabb) {
                    pairs.push((*ph, pd));
                }
            }
        }
    }
    pairs
}

fn bench_iou(c: &mut Criterion) {
    let a = Box3::on_ground(10.0, 0.0, 0.0, 4.5, 1.9, 1.6, 0.3);
    let overlapping = Box3::on_ground(10.8, 0.4, 0.0, 4.4, 1.8, 1.6, 0.5);
    let distant = Box3::on_ground(60.0, 20.0, 0.0, 4.5, 1.9, 1.6, 0.0);

    let mut group = c.benchmark_group("iou");
    group.sample_size(samples());
    group.bench_function("bev_overlapping", |b| {
        b.iter(|| black_box(iou_bev(black_box(&a), black_box(&overlapping))))
    });
    group.bench_function("bev_distant_early_reject", |b| {
        b.iter(|| black_box(iou_bev(black_box(&a), black_box(&distant))))
    });
    group.bench_function("volumetric", |b| {
        b.iter(|| black_box(iou_3d(black_box(&a), black_box(&overlapping))))
    });

    let pairs = scene_pairs();
    assert!(!pairs.is_empty(), "the scene has no overlapping pairs");
    group.bench_function("prepared_scene_pairs", |b| {
        b.iter(|| {
            let mut sum = 0.0;
            for (p, q) in black_box(&pairs) {
                sum += iou_bev_prepared(&p.corners, p.area, &q.corners, q.area);
            }
            sum
        })
    });
    group.finish();
    println!("iou/prepared_scene_pairs: {} pairs per iteration", pairs.len());
}

fn bench_polygon(c: &mut Criterion) {
    let a = Box3::on_ground(0.0, 0.0, 0.0, 4.5, 1.9, 1.6, 0.2).bev_polygon();
    let b_poly = Box3::on_ground(0.8, 0.3, 0.0, 4.5, 1.9, 1.6, 1.0).bev_polygon();
    let mut group = c.benchmark_group("polygon");
    group.sample_size(samples());
    group.bench_function("clip_intersection", |b| {
        b.iter(|| black_box(a.intersect(black_box(&b_poly)).area()))
    });
    group.finish();
}

fn bench_lidar_scan(c: &mut Criterion) {
    let boxes: Vec<Box3> = (0..30)
        .map(|i| {
            Box3::on_ground(
                8.0 + (i as f64 * 6.1) % 60.0,
                -18.0 + (i as f64 * 4.3) % 36.0,
                0.0,
                4.5,
                1.9,
                1.6,
                i as f64 * 0.4,
            )
        })
        .collect();
    let cfg = loa_data::LidarConfig::default();
    let mut group = c.benchmark_group("lidar");
    group.sample_size(if smoke() { 3 } else { 30 });
    group.bench_function("scan_30_objects_900_beams", |b| {
        b.iter(|| {
            let scan = loa_data::lidar::scan(black_box(&boxes), &cfg, false);
            black_box(scan.visibility.len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_iou, bench_polygon, bench_lidar_scan);
criterion_main!(benches);
