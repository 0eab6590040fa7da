//! End-to-end pipeline integration tests: generate → corrupt → learn →
//! assemble → compile → score → rank, across crate boundaries.

use fixy::core::compile::{compile_scene, CompiledScene};
use fixy::core::score::ComponentScore;
use fixy::data::{generate_scene, DatasetProfile, ObservationSource, ScenarioFuzzer, SceneConfig};
use fixy::prelude::*;
use std::collections::BTreeSet;
use std::sync::OnceLock;

fn small_cfg() -> SceneConfig {
    let mut cfg = DatasetProfile::LyftLike.scene_config();
    cfg.world.duration = 6.0;
    cfg.lidar.beam_count = 300;
    cfg
}

fn train_library(finder_features: &FeatureSet, n: usize, seed: u64) -> FeatureLibrary {
    let cfg = small_cfg();
    let train: Vec<_> = (0..n)
        .map(|i| generate_scene(&cfg, &format!("pl-train-{i}"), seed + i as u64))
        .collect();
    Learner::new().fit(finder_features, &train).expect("fit")
}

#[test]
fn full_missing_track_pipeline() {
    let finder = MissingTrackFinder::default();
    let library = train_library(&finder.feature_set(), 3, 9000);
    let cfg = small_cfg();

    let mut total_candidates = 0usize;
    for seed in 0..3 {
        let data = generate_scene(&cfg, &format!("pl-eval-{seed}"), 9100 + seed);
        let scene = Scene::assemble(&data, &AssemblyConfig::default());
        let ranked = finder.rank_scene(&data, &scene, &library).expect("rank");
        total_candidates += ranked.len();
        // Structural invariants of the output.
        for w in ranked.windows(2) {
            assert!(w[0].score >= w[1].score, "ranking must be sorted");
        }
        for c in &ranked {
            assert!(c.score.is_finite());
            assert!(c.score <= 0.0);
            assert!(c.n_obs > 0);
            let track = scene.track(c.track);
            assert!(!scene.track_has_source(track, ObservationSource::Human));
        }
    }
    assert!(total_candidates > 0, "pipeline should surface candidates");
}

#[test]
fn pipeline_is_deterministic_end_to_end() {
    let finder = MissingTrackFinder::default();
    let library1 = train_library(&finder.feature_set(), 2, 9500);
    let library2 = train_library(&finder.feature_set(), 2, 9500);
    let cfg = small_cfg();
    let data = generate_scene(&cfg, "pl-det", 9999);
    let scene = Scene::assemble(&data, &AssemblyConfig::default());
    let r1 = finder.rank_scene(&data, &scene, &library1).expect("rank");
    let r2 = finder.rank_scene(&data, &scene, &library2).expect("rank");
    assert_eq!(r1.len(), r2.len());
    for (a, b) in r1.iter().zip(&r2) {
        assert_eq!(a.track, b.track);
        assert!((a.score - b.score).abs() < 1e-12);
    }
}

#[test]
fn library_survives_serialization() {
    // A fitted library can be persisted and reloaded without changing any
    // ranking — required for the offline/online split in deployment.
    let finder = MissingTrackFinder::default();
    let library = train_library(&finder.feature_set(), 2, 9700);
    let json = serde_json::to_string(&library).expect("serialize");
    let reloaded: FeatureLibrary = serde_json::from_str(&json).expect("deserialize");

    let cfg = small_cfg();
    let data = generate_scene(&cfg, "pl-serde", 9800);
    let scene = Scene::assemble(&data, &AssemblyConfig::default());
    let r1 = finder.rank_scene(&data, &scene, &library).expect("rank");
    let r2 = finder.rank_scene(&data, &scene, &reloaded).expect("rank");
    assert_eq!(r1.len(), r2.len());
    for (a, b) in r1.iter().zip(&r2) {
        assert_eq!(a.track, b.track);
        assert!((a.score - b.score).abs() < 1e-12);
    }
}

#[test]
fn scene_roundtrips_through_disk() {
    let cfg = small_cfg();
    let data = generate_scene(&cfg, "pl-io", 9901);
    let dir = std::env::temp_dir().join("fixy_pipeline_io");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("scene.json");
    fixy::data::io::save_scene(&data, &path).expect("save");
    let loaded = fixy::data::io::load_scene(&path).expect("load");
    std::fs::remove_file(&path).ok();

    // Assembling the loaded scene gives the identical structure.
    let s1 = Scene::assemble(&data, &AssemblyConfig::default());
    let s2 = Scene::assemble(&loaded, &AssemblyConfig::default());
    assert_eq!(s1.n_observations(), s2.n_observations());
    assert_eq!(s1.n_bundles(), s2.n_bundles());
    assert_eq!(s1.n_tracks(), s2.n_tracks());
}

#[test]
fn assembly_engine_matches_scene_assemble_field_for_field() {
    // The staged, buffer-reusing AssemblyEngine is the pipeline's
    // assembly path; it must produce exactly what the one-shot
    // Scene::assemble produces — same observations, same bundles, same
    // tracks, same order — across configs and across reuse.
    use fixy::core::AssemblyEngine;

    let cfg = small_cfg();
    let mut engine = AssemblyEngine::new(AssemblyConfig::default());
    for seed in 0..4 {
        let data = generate_scene(&cfg, &format!("ae-{seed}"), 7700 + seed);
        for (name, assembly) in [
            ("default", AssemblyConfig::default()),
            ("model_only", AssemblyConfig::model_only()),
            ("human_only", AssemblyConfig::human_only()),
        ] {
            engine.set_config(assembly);
            let engine_scene = engine.assemble(&data);
            let reference = Scene::assemble(&data, &assembly);
            // Scene's derived PartialEq spans every field: observations,
            // both CSR membership arenas and their offsets, frame_dt,
            // n_frames.
            assert_eq!(engine_scene, reference, "{name} seed {seed} diverged");
        }
    }
}

#[test]
fn scene_pipeline_parallel_is_byte_identical_to_sequential() {
    // The batch engine's core contract: fanning scenes out to workers
    // must not change a single bit of any score or the merge order.
    let finder = MissingTrackFinder::default();
    let library = train_library(&finder.feature_set(), 2, 8800);
    let cfg = small_cfg();
    let batch: Vec<_> = (0..8)
        .map(|i| generate_scene(&cfg, &format!("sp-batch-{i}"), 8900 + i))
        .collect();

    let parallel = ScenePipeline::new(MissingTrackFinder::default())
        .run_merged(&library, batch.clone())
        .expect("parallel run");
    let sequential = ScenePipeline::new(MissingTrackFinder::default())
        .sequential()
        .run_merged(&library, batch)
        .expect("sequential run");

    assert!(!parallel.is_empty(), "batch should surface candidates");
    assert_eq!(parallel.len(), sequential.len());
    for (p, s) in parallel.iter().zip(&sequential) {
        assert_eq!(p.scene_id, s.scene_id);
        assert_eq!(p.scene_index, s.scene_index);
        assert_eq!(p.candidate.track, s.candidate.track);
        assert_eq!(
            p.candidate.score.to_bits(),
            s.candidate.score.to_bits(),
            "scores must match bit-for-bit"
        );
    }
}

#[test]
fn scene_pipeline_empty_and_single_scene() {
    let finder = MissingTrackFinder::default();
    let library = train_library(&finder.feature_set(), 2, 8700);
    let pipeline = ScenePipeline::new(MissingTrackFinder::default());

    // Empty batch: empty worklist, no error.
    let empty = pipeline.run_merged(&library, Vec::new()).expect("empty batch");
    assert!(empty.is_empty());

    // Single scene: the batch result equals the registry app's direct
    // single-scene rank.
    let cfg = small_cfg();
    let data = generate_scene(&cfg, "sp-single", 8750);
    let scene = Scene::assemble(&data, &AssemblyConfig::default());
    let direct = App::MissingTracks.rank(&scene, &library).expect("rank");
    let batched = pipeline.run_merged(&library, vec![data]).expect("single batch");
    assert_eq!(batched.len(), direct.len());
    for (b, d) in batched.iter().zip(&direct) {
        assert_eq!(b.scene_id, "sp-single");
        assert_eq!(d.as_track(), Some(&b.candidate));
        assert_eq!(b.candidate.score.to_bits(), d.score().to_bits());
    }
}

/// The three `AssemblyConfig` presets: default, model-only, human-only.
fn presets() -> [AssemblyConfig; 3] {
    [AssemblyConfig::default(), AssemblyConfig::model_only(), AssemblyConfig::human_only()]
}

/// Every app's feature set, with a library fitted for it (under the
/// app's own preset) on a fuzzed training corpus, built once per process.
fn app_fixtures() -> &'static [(&'static str, FeatureSet, FeatureLibrary)] {
    static FIXTURES: OnceLock<Vec<(&str, FeatureSet, FeatureLibrary)>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let train = ScenarioFuzzer::new(97).training_corpus(2);
        let fit = |name, assembly, features: FeatureSet| {
            let library = Learner { assembly }.fit(&features, &train).expect("fit");
            (name, features, library)
        };
        let [default, model_only, human_only] = presets();
        vec![
            fit("missing_tracks", default, MissingTrackFinder::default().feature_set()),
            fit("missing_obs", default, MissingObsFinder::default().feature_set()),
            fit("model_errors", model_only, ModelErrorFinder::default().feature_set()),
            fit("label_audit", human_only, LabelAuditFinder::default().feature_set()),
            fit("bundle_audit", default, BundleAuditFinder.feature_set()),
        ]
    })
}

/// Visit fuzzed scenes assembled under all three presets, each compiled
/// (the Section 4.3 reference) against every app's feature set.
fn for_each_compiled(
    mut visit: impl FnMut(&str, &Scene, &FeatureSet, &FeatureLibrary, &CompiledScene),
) {
    for cfg in presets() {
        for index in 0..3 {
            let scene = Scene::assemble(&ScenarioFuzzer::new(98).scene(index), &cfg);
            for (name, features, library) in app_fixtures() {
                let compiled = compile_scene(&scene, features, library).expect("compile");
                let ctx = format!("{name} {cfg:?} scene {index}");
                visit(&ctx, &scene, features, library, &compiled);
            }
        }
    }
}

#[test]
fn indexed_sweep_matches_generic_component_scoring_bit_for_bit() {
    // The scoring engine (per-track `ln p` stores) against the reference
    // (`score_component` per candidate over the compiled factor graph),
    // for every track and bundle: same f64 bits, factor counts and zeroed
    // flags. Both fold the same factors in the same order.
    let key = |s: ComponentScore| (s.score.map(f64::to_bits), s.factor_count, s.zeroed);
    for_each_compiled(|ctx, scene, features, library, reference| {
        let engine = ScoreEngine::new(scene, features, library).expect("engine");
        for (t, got) in engine.score_all_tracks() {
            let want = reference.score(&scene.track_obs(scene.track(t)));
            assert_eq!(key(got), key(want), "{ctx}: track {t:?}");
        }
        for (b, got) in engine.score_all_bundles() {
            let want = reference.score(scene.bundle_obs(b));
            assert_eq!(key(got), key(want), "{ctx}: bundle {b:?}");
        }
    });
}

#[test]
fn every_factor_graph_component_lies_inside_one_track() {
    // The premise the single scoring engine rests on: no factor scope
    // spans two tracks, so every connected component of a compiled scene
    // lies inside one track.
    for_each_compiled(|ctx, scene, _, _, compiled| {
        let mut track_of = vec![None; scene.n_observations()];
        for t in scene.tracks() {
            for o in scene.track_obs_iter(t.idx) {
                track_of[o.0] = Some(t.idx);
            }
        }
        for component in compiled.graph.connected_components() {
            let tracks: BTreeSet<_> =
                component.iter().map(|v| track_of[compiled.graph.var(*v).0]).collect();
            assert!(
                tracks.len() == 1 && !tracks.contains(&None),
                "{ctx}: tracks {tracks:?}"
            );
        }
    });
}

#[test]
fn fuzzed_batch_is_byte_identical_across_runs_and_vs_sequential() {
    // The fuzzer's corpus through the batch engine: repeated parallel
    // runs and the sequential reference must agree bit-for-bit, and
    // regenerating the corpus from the same seed must too — the
    // conformance harness depends on this reproducibility.

    let fuzzer = ScenarioFuzzer::new(7);
    let train = fuzzer.training_corpus(2);
    let finder = MissingTrackFinder::default();
    let library = Learner::new().fit(&finder.feature_set(), &train).expect("fit");
    let batch = fuzzer.corpus(6);

    let runs: Vec<Vec<BatchCandidate>> = (0..2)
        .map(|_| {
            ScenePipeline::new(MissingTrackFinder::default())
                .run_merged(&library, fuzzer.corpus(6))
                .expect("parallel run")
        })
        .collect();
    let sequential = ScenePipeline::new(MissingTrackFinder::default())
        .sequential()
        .run_merged(&library, batch)
        .expect("sequential run");

    assert!(!sequential.is_empty(), "fuzzed batch should surface candidates");
    for run in &runs {
        assert_eq!(run.len(), sequential.len());
        for (p, s) in run.iter().zip(&sequential) {
            assert_eq!(p.scene_id, s.scene_id);
            assert_eq!(p.scene_index, s.scene_index);
            assert_eq!(p.candidate.track, s.candidate.track);
            assert_eq!(
                p.candidate.score.to_bits(),
                s.candidate.score.to_bits(),
                "scores must match bit-for-bit"
            );
        }
    }
}

#[test]
fn bundle_level_pipeline_matches_direct_rank() {
    // The generalized SceneRanker: a bundle-level app through the batch
    // engine equals its direct per-scene ranking.
    let finder = MissingObsFinder::default();
    let library = train_library(&finder.feature_set(), 2, 8600);
    let cfg = small_cfg();
    let data = generate_scene(&cfg, "sp-bundle", 8650);

    let scene = Scene::assemble(&data, &AssemblyConfig::default());
    let direct = App::MissingObs.rank(&scene, &library).expect("rank");
    let batched = ScenePipeline::new(MissingObsFinder::default())
        .run_merged(&library, vec![data])
        .expect("bundle batch");
    assert_eq!(batched.len(), direct.len());
    for (b, d) in batched.iter().zip(&direct) {
        assert_eq!(d.as_bundle(), Some(&b.candidate));
        assert_eq!(b.candidate.score.to_bits(), d.score().to_bits());
    }
}

#[test]
fn all_three_applications_run_on_one_scene() {
    // Every registry app, not only the paper's three: fit on its
    // training preset, rank on its ranking preset, and agree with the
    // batch pipeline.
    let cfg = small_cfg();
    let train: Vec<_> = (0..3)
        .map(|i| generate_scene(&cfg, &format!("pl3-train-{i}"), 9600 + i))
        .collect();
    let data = generate_scene(&cfg, "pl3-eval", 9650);

    for app in App::ALL {
        let library = app.fit(&train).expect("fit");
        let scene = Scene::assemble(&data, &app.assembly());
        let direct = app.rank(&scene, &library).expect("rank");
        let batched = ScenePipeline::new(app)
            .run_merged(&library, vec![data.clone()])
            .expect("batch");
        assert_eq!(batched.len(), direct.len(), "{}", app.name());
        for (b, d) in batched.iter().zip(&direct) {
            assert_eq!(&b.candidate, d, "{}", app.name());
        }
    }
}
