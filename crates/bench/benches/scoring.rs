//! Score-path microbenchmarks: the two layers the fast online phase is
//! built from.
//!
//! * `scoring/density_*` — evaluating a learned feature distribution the
//!   exact way (`FittedDistribution`: windowed kernel sums) vs the
//!   prepared way (`PreparedDistribution`: precompiled probability grids,
//!   one lookup + interpolation per query).
//! * `scoring/components_*` — scoring every track of a scene through the
//!   Section 4.3 reference (per-candidate `score_component` over the
//!   compiled factor graph: set rebuilds) vs the engine's single-sweep
//!   `score_all_tracks` over its per-track stores.
//!
//! Set `FIXY_BENCH_SMOKE=1` to run on a miniature scene with 3 samples —
//! the CI smoke mode that keeps the bench compiling *and* executing.

use criterion::{criterion_group, criterion_main, Criterion};
use fixy_core::compile::compile_scene;
use fixy_core::prelude::*;
use fixy_core::score::ScoreEngine;
use fixy_core::Learner;
use loa_data::{generate_scene, DatasetProfile, ObjectClass, SceneData};
use std::hint::black_box;

fn smoke() -> bool {
    std::env::var_os("FIXY_BENCH_SMOKE").is_some_and(|v| v != "0")
}

fn setup() -> (SceneData, FeatureLibrary, MissingTrackFinder) {
    let mut cfg = DatasetProfile::InternalLike.scene_config();
    if smoke() {
        cfg.world.duration = 3.0;
        cfg.lidar.beam_count = 240;
    }
    let finder = MissingTrackFinder::default();
    let train: Vec<_> = (0..2)
        .map(|i| generate_scene(&cfg, &format!("score-train-{i}"), 42 + i))
        .collect();
    let library = Learner::new().fit(&finder.feature_set(), &train).expect("fit");
    let data = generate_scene(&cfg, "score-eval", 4242);
    (data, library, finder)
}

fn bench_density(c: &mut Criterion) {
    let (_, library, _) = setup();
    let fitted = library.get("volume").expect("volume distribution");
    let prepared = library.get_prepared("volume").expect("prepared volume");
    let queries: Vec<FeatureValue> = (0..256)
        .map(|i| {
            let x = ((i * 2654435761u64) % 9000) as f64 / 100.0;
            FeatureValue::class_conditional(x, ObjectClass::Car)
        })
        .collect();

    let mut group = c.benchmark_group("scoring");
    group.sample_size(if smoke() { 3 } else { 20 });

    group.bench_function("density_exact_256_queries", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for q in &queries {
                acc += fitted.probability(black_box(q));
            }
            black_box(acc)
        })
    });

    group.bench_function("density_prepared_256_queries", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for q in &queries {
                acc += prepared.probability(black_box(q));
            }
            black_box(acc)
        })
    });

    group.finish();
}

fn bench_component_scoring(c: &mut Criterion) {
    let (data, library, finder) = setup();
    let scene = Scene::assemble(&data, &AssemblyConfig::default());
    let features = finder.feature_set();
    let engine = ScoreEngine::new(&scene, &features, &library).expect("engine");
    let compiled = compile_scene(&scene, &features, &library).expect("compile");

    let mut group = c.benchmark_group("scoring");
    group.sample_size(if smoke() { 3 } else { 20 });

    group.bench_function("components_per_candidate_generic", |b| {
        b.iter(|| {
            let mut scored = 0usize;
            for track in scene.tracks() {
                if compiled.score(&scene.track_obs(track)).score.is_some() {
                    scored += 1;
                }
            }
            black_box(scored)
        })
    });

    group.bench_function("components_single_sweep", |b| {
        b.iter(|| {
            let scored = engine
                .score_all_tracks()
                .into_iter()
                .filter(|(_, s)| s.score.is_some())
                .count();
            black_box(scored)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_density, bench_component_scoring);
criterion_main!(benches);
