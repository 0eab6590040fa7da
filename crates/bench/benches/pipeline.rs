//! ScenePipeline batch engine: parallel fan-out vs the sequential
//! reference path on a multi-scene batch, timing `process` (per-scene
//! results in input order).
//!
//! The acceptance bar for the batch engine is >1.5× speedup on a
//! ≥8-scene batch with byte-identical results (determinism is locked in
//! by `tests/pipeline.rs`; this bench demonstrates the speedup).
//!
//! Set `FIXY_BENCH_SMOKE=1` to run one batch of two short scenes with 3
//! samples — the CI smoke mode that keeps the bench compiling *and*
//! executing (ids `pipeline/{sequential,parallel}/2`; a full run times
//! batches of 8 and 16).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fixy_core::prelude::*;
use fixy_core::Learner;
use loa_data::{generate_scene, DatasetProfile, SceneData};
use std::hint::black_box;

fn smoke() -> bool {
    std::env::var_os("FIXY_BENCH_SMOKE").is_some_and(|v| v != "0")
}

fn batch(n: usize, seed: u64) -> Vec<SceneData> {
    let mut cfg = DatasetProfile::LyftLike.scene_config();
    cfg.world.duration = if smoke() { 2.0 } else { 6.0 };
    cfg.lidar.beam_count = if smoke() { 240 } else { 300 };
    (0..n)
        .map(|i| generate_scene(&cfg, &format!("bench-pipe-{i:02}"), seed + i as u64))
        .collect()
}

fn library() -> FeatureLibrary {
    let finder = MissingTrackFinder;
    let train = batch(2, 7000);
    Learner::new().fit(&finder.feature_set(), &train).expect("fit")
}

fn bench_pipeline(c: &mut Criterion) {
    let lib = library();
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(if smoke() { 3 } else { 10 });

    let sizes: &[usize] = if smoke() { &[2] } else { &[8, 16] };
    for &n_scenes in sizes {
        let scenes = batch(n_scenes, 7100);

        group.bench_with_input(BenchmarkId::new("sequential", n_scenes), &scenes, |b, scenes| {
            let pipeline = ScenePipeline::new(MissingTrackFinder).sequential();
            b.iter(|| {
                let ranked = pipeline.process(&lib, black_box(scenes.clone()), |r| r).expect("run");
                black_box(ranked.len())
            })
        });

        group.bench_with_input(BenchmarkId::new("parallel", n_scenes), &scenes, |b, scenes| {
            let pipeline = ScenePipeline::new(MissingTrackFinder);
            b.iter(|| {
                let ranked = pipeline.process(&lib, black_box(scenes.clone()), |r| r).expect("run");
                black_box(ranked.len())
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
