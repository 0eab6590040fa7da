//! Section 8.1 runtime benchmark: the end-to-end online phase on a
//! 15-second Internal-like scene (paper bound: < 5 s on one core), plus
//! the phases broken out.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use fixy_core::prelude::*;
use fixy_core::Learner;
use loa_data::{generate_scene, DatasetProfile, SceneData};
use std::hint::black_box;

/// `FIXY_BENCH_SMOKE=1` shrinks the workload so CI can execute every
/// bench body without paying full-fidelity scene costs.
fn smoke() -> bool {
    std::env::var_os("FIXY_BENCH_SMOKE").is_some()
}

fn scene_config() -> loa_data::SceneConfig {
    let mut cfg = DatasetProfile::InternalLike.scene_config();
    if smoke() {
        cfg.world.duration = 3.0;
        cfg.lidar.beam_count = 240;
    }
    cfg
}

fn setup() -> (SceneData, FeatureLibrary, MissingTrackFinder) {
    let cfg = scene_config();
    let finder = MissingTrackFinder;
    let train: Vec<_> = (0..2)
        .map(|i| generate_scene(&cfg, &format!("bench-train-{i}"), 42 + i))
        .collect();
    let library = Learner::new().fit(&finder.feature_set(), &train).expect("fit");
    let data = generate_scene(&cfg, "bench-eval", 4242);
    (data, library, finder)
}

fn bench_scene_runtime(c: &mut Criterion) {
    let (data, library, finder) = setup();
    let mut group = c.benchmark_group("scene_runtime");
    group.sample_size(if smoke() { 10 } else { 20 });

    group.bench_function("online_phase_15s_scene", |b| {
        b.iter(|| {
            let scene = Scene::assemble(black_box(&data), &AssemblyConfig::default());
            let ranked = finder.rank_scene(&data, &scene, &library).expect("rank");
            black_box(ranked.len())
        })
    });

    group.bench_function("assemble_only", |b| {
        b.iter(|| {
            let scene = Scene::assemble(black_box(&data), &AssemblyConfig::default());
            black_box(scene.n_tracks())
        })
    });

    let scene = Scene::assemble(&data, &AssemblyConfig::default());
    group.bench_function("score_and_rank_only", |b| {
        b.iter_batched(
            || scene.clone(),
            |scene| {
                let ranked = finder.rank_scene(&data, &scene, &library).expect("rank");
                black_box(ranked.len())
            },
            BatchSize::SmallInput,
        )
    });

    group.finish();
}

fn bench_offline_learning(c: &mut Criterion) {
    let cfg = scene_config();
    let finder = MissingTrackFinder;
    let train: Vec<_> = (0..2)
        .map(|i| generate_scene(&cfg, &format!("bench-fit-{i}"), 77 + i))
        .collect();
    let mut group = c.benchmark_group("offline");
    group.sample_size(10);
    group.bench_function("learn_distributions_2_scenes", |b| {
        b.iter(|| {
            let library = Learner::new()
                .fit(&finder.feature_set(), black_box(&train))
                .expect("fit");
            black_box(library.len())
        })
    });

    // Library load, per wire format — the fleet-scale per-app startup
    // cost. The JSON path pays a streamed typed parse (no intermediate
    // Value tree since the streaming lexer landed) + a grid rebuild per
    // KDE (a convolution each); the .flcb path is a bounds-checked bulk
    // copy of the stored grids, which is the whole point of the binary
    // format.
    let library = Learner::new().fit(&finder.feature_set(), &train).expect("fit");
    let json = serde_json::to_string(&library).expect("serialize library");
    group.bench_function("library_load_json", |b| {
        b.iter(|| {
            let library: FeatureLibrary =
                serde_json::from_str(black_box(&json)).expect("deserialize");
            black_box(library.len())
        })
    });
    let flcb = fixy_core::flcb::encode_library("missing-tracks", &library);
    group.bench_function("library_load_flcb", |b| {
        b.iter(|| {
            let (_, library) = fixy_core::flcb::decode_library(black_box(&flcb)).expect("decode");
            black_box(library.len())
        })
    });
    group.finish();

    // The binary format must actually win, by a wide margin (the
    // recorded snapshots track the full ratio; this guards against the
    // flcb path silently regressing into a refit). Minimum-of-5 keeps
    // the check robust to scheduler noise.
    let time_min = |f: &dyn Fn()| {
        (0..5)
            .map(|_| {
                let t = std::time::Instant::now();
                f();
                t.elapsed()
            })
            .min()
            .expect("nonempty")
    };
    let json_t = time_min(&|| {
        let lib: FeatureLibrary = serde_json::from_str(&json).expect("deserialize");
        black_box(lib.len());
    });
    let flcb_t = time_min(&|| {
        let (_, lib) = fixy_core::flcb::decode_library(&flcb).expect("decode");
        black_box(lib.len());
    });
    assert!(
        json_t > flcb_t * 5,
        "flcb library load must be far faster than JSON: json {json_t:?} vs flcb {flcb_t:?}"
    );
}

criterion_group!(benches, bench_scene_runtime, bench_offline_learning);
criterion_main!(benches);
