//! Assembly-path microbenchmarks: the three stages `AssemblyEngine` runs
//! per scene, plus the end-to-end path with and without engine reuse.
//!
//! * `assembly/bundle_frames_*` — stage 1, same-frame bundling of every
//!   frame's human+model boxes: their footprints prepared into a reused
//!   buffer and bundled by the spatially-indexed `bundle_prepared_into`
//!   (vs the retained `bundle_frame_brute` reference).
//! * `assembly/build_tracks_*` — stage 2, cross-frame tracking over the
//!   bundle representative boxes: their footprints prepared per frame
//!   and stepped through a warm `TrackBuilder`, whose assignment is
//!   sparse and grid-pruned (vs `build_tracks_brute`).
//! * `assembly/materialize_scene` — stage 3, folding membership lists
//!   into the CSR `Scene` arenas (`Scene::from_parts`).
//! * `assembly/assemble_full` / `assemble_engine_reused` — the whole
//!   path: a fresh engine per scene vs one warm engine across scenes (the
//!   `ScenePipeline` worker regime).
//! * `assembly/corpus_presets` — one corpus-audit-shaped fuzzed scene
//!   (~15 s at 10 Hz, a crowded cast) assembled under the default,
//!   model-only and human-only presets on one reused engine: what a
//!   `ScenePipeline` worker does per scene when it runs every app.
//!
//! Set `FIXY_BENCH_SMOKE=1` to run on a miniature scene with 3 samples —
//! the CI smoke mode that keeps the bench compiling *and* executing.

use criterion::{criterion_group, criterion_main, Criterion};
use fixy_core::prelude::*;
use fixy_core::{BundleIdx, ObsIdx};
use loa_assoc::{
    build_tracks_brute, bundle_frame_brute, bundle_prepared_into, BundleScratch, FrameBundles,
    PreparedBox, TrackBuilder,
};
use loa_data::{generate_scene, DatasetProfile, FrameId, FuzzProfile, ScenarioFuzzer, SceneData};
use loa_geom::Box3;
use std::hint::black_box;

fn smoke() -> bool {
    std::env::var_os("FIXY_BENCH_SMOKE").is_some_and(|v| v != "0")
}

fn setup() -> SceneData {
    let mut cfg = DatasetProfile::InternalLike.scene_config();
    if smoke() {
        cfg.world.duration = 3.0;
        cfg.lidar.beam_count = 240;
    }
    generate_scene(&cfg, "assembly-eval", 4242)
}

/// A fuzzed scene shaped like the benchmark's corpus-audit scenes: the
/// fuzzer's default world at 10 Hz for ~15 s with 14–18 extra actors.
fn corpus_scene() -> SceneData {
    let duration = if smoke() { (2.0, 2.5) } else { (14.5, 15.5) };
    let profile = FuzzProfile {
        duration,
        frame_dt: 0.1,
        extra_actors: (14, 18),
        ..FuzzProfile::default()
    };
    ScenarioFuzzer::new(1).with_profile(profile).scene(0)
}

/// The per-frame `[human, model]` box lists the bundling stage consumes.
fn frame_sources(data: &SceneData) -> Vec<(Vec<Box3>, Vec<Box3>)> {
    data.frames
        .iter()
        .map(|f| {
            (
                f.human_labels.iter().map(|l| l.bbox).collect(),
                f.detections.iter().map(|d| d.bbox).collect(),
            )
        })
        .collect()
}

/// Stage-2 input: per-frame bundle representative boxes, via a real
/// assembly so the boxes match what the engine tracks over.
fn rep_boxes(data: &SceneData) -> Vec<Vec<Box3>> {
    let scene = Scene::assemble(data, &AssemblyConfig::default());
    let mut reps: Vec<Vec<Box3>> = vec![Vec::new(); data.frames.len()];
    for b in scene.bundles() {
        reps[b.frame.0 as usize].push(scene.bundle_representative(b).bbox);
    }
    reps
}

/// Stage-3 input: the membership lists `from_parts` folds into CSR.
type SceneParts = (Vec<Observation>, Vec<(FrameId, Vec<ObsIdx>)>, Vec<Vec<BundleIdx>>);

fn scene_parts(data: &SceneData) -> SceneParts {
    let scene = Scene::assemble(data, &AssemblyConfig::default());
    let observations = scene.observations().to_vec();
    let bundles = scene
        .bundles()
        .iter()
        .map(|b| (b.frame, scene.bundle_obs(b.idx).to_vec()))
        .collect();
    let tracks = scene
        .tracks()
        .iter()
        .map(|t| scene.track_bundles(t.idx).to_vec())
        .collect();
    (observations, bundles, tracks)
}

fn bench_stages(c: &mut Criterion) {
    let data = setup();
    let sources = frame_sources(&data);
    let reps = rep_boxes(&data);
    let (observations, bundle_parts, track_parts) = scene_parts(&data);

    let mut group = c.benchmark_group("assembly");
    group.sample_size(if smoke() { 3 } else { 20 });

    // ---- Stage 1: bundling ------------------------------------------------
    group.bench_function("bundle_frames_indexed", |b| {
        let (mut prepared, mut scratch, mut out) =
            (Vec::new(), BundleScratch::default(), FrameBundles::default());
        b.iter(|| {
            let mut n = 0usize;
            for (human, model) in black_box(&sources) {
                prepared.clear();
                prepared.extend(human.iter().chain(model).map(PreparedBox::new));
                bundle_prepared_into(
                    &prepared,
                    &[human.len(), prepared.len()],
                    &mut scratch,
                    &mut out,
                );
                n += out.len();
            }
            black_box(n)
        })
    });
    group.bench_function("bundle_frames_brute", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for (human, model) in &sources {
                n += bundle_frame_brute(&[black_box(human), black_box(model)]).len();
            }
            black_box(n)
        })
    });

    // ---- Stage 2: tracking ------------------------------------------------
    group.bench_function("build_tracks_indexed", |b| {
        let (mut builder, mut prepared, mut items) =
            (TrackBuilder::default(), Vec::new(), Vec::new());
        b.iter(|| {
            builder.begin();
            for boxes in black_box(&reps) {
                prepared.clear();
                prepared.extend(boxes.iter().map(PreparedBox::new));
                items.clear();
                items.extend(0..boxes.len() as u32);
                builder.step_prepared(&prepared, &items);
            }
            black_box(builder.n_paths())
        })
    });
    group.bench_function("build_tracks_brute", |b| {
        b.iter(|| black_box(build_tracks_brute(black_box(&reps)).len()))
    });

    // ---- Stage 3: materialization ------------------------------------------
    group.bench_function("materialize_scene", |b| {
        b.iter(|| {
            let scene = Scene::from_parts(
                black_box(observations.clone()),
                black_box(bundle_parts.clone()),
                black_box(track_parts.clone()),
                data.frame_dt,
                data.frames.len(),
            );
            black_box(scene.n_tracks())
        })
    });

    // ---- End to end ---------------------------------------------------------
    group.bench_function("assemble_full", |b| {
        b.iter(|| {
            let scene = Scene::assemble(black_box(&data), &AssemblyConfig::default());
            black_box(scene.n_tracks())
        })
    });
    group.bench_function("assemble_engine_reused", |b| {
        let mut engine = AssemblyEngine::new(AssemblyConfig::default());
        b.iter(|| {
            let scene = engine.assemble(black_box(&data));
            black_box(scene.n_tracks())
        })
    });
    let corpus = corpus_scene();
    let presets =
        [AssemblyConfig::default(), AssemblyConfig::model_only(), AssemblyConfig::human_only()];
    group.bench_function("corpus_presets", |b| {
        let mut engine = AssemblyEngine::default();
        b.iter(|| {
            let mut tracks = 0;
            for cfg in presets {
                engine.set_config(cfg);
                tracks += engine.assemble(black_box(&corpus)).n_tracks();
            }
            black_box(tracks)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_stages);
criterion_main!(benches);
