//! ScenePipeline batch engine: parallel fan-out vs the sequential
//! reference path on a multi-scene batch.
//!
//! The acceptance bar for the batch engine is >1.5× speedup on a
//! ≥8-scene batch with byte-identical results (determinism is locked in
//! by `tests/pipeline.rs`; this bench demonstrates the speedup).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fixy_core::prelude::*;
use fixy_core::Learner;
use loa_data::{generate_scene, DatasetProfile, SceneData};
use std::hint::black_box;

fn batch(n: usize, seed: u64) -> Vec<SceneData> {
    let mut cfg = DatasetProfile::LyftLike.scene_config();
    cfg.world.duration = 6.0;
    cfg.lidar.beam_count = 300;
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
    group.sample_size(10);

    for n_scenes in [8usize, 16] {
        let scenes = batch(n_scenes, 7100);

        group.bench_with_input(BenchmarkId::new("sequential", n_scenes), &scenes, |b, scenes| {
            let pipeline = ScenePipeline::new(MissingTrackFinder).sequential();
            b.iter(|| {
                let merged = pipeline.run_merged(&lib, black_box(scenes.clone())).expect("run");
                black_box(merged.len())
            })
        });

        group.bench_with_input(BenchmarkId::new("parallel", n_scenes), &scenes, |b, scenes| {
            let pipeline = ScenePipeline::new(MissingTrackFinder);
            b.iter(|| {
                let merged = pipeline.run_merged(&lib, black_box(scenes.clone())).expect("run");
                black_box(merged.len())
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
